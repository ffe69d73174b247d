"""Worst-case expected second-stage cost over the moment ambiguity set.

For a fixed plan the adversary chooses, independently per customer, a
distribution on the finite support whose mean and second moment lie in the
decision-dependent windows.  Each customer therefore contributes a small LP
over the support probabilities; the total worst case is the sum.  The dual
of that LP, its extreme rays, and the resulting closed-form feasibility
certificate live here as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instance import (DemandModel, Instance, mean_of, means_vector,
                       variance_of, variances_vector)
from .milp import LinearExpr, MilpModel
from .transport import _candidate_gaps, _candidate_terms

__all__ = [
    "WorstCaseDistribution",
    "DualCertificate",
    "AmbiguityInfeasibleError",
    "FeasibilityReport",
    "theta_values",
    "worst_case_expectation",
    "worst_case_dual",
    "dual_value",
    "check_certificate",
    "extreme_rays",
    "ambiguity_feasible",
    "worst_case_values",
]

RAY_TOL = 1e-9


@dataclass(frozen=True)
class WorstCaseDistribution:
    """Adversarial support probabilities pi[j, k] and the attained value."""

    pi: np.ndarray
    value: float


@dataclass(frozen=True)
class DualCertificate:
    """Optimal multipliers of the per-customer moment constraints."""

    alpha: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple      # (customer id, ray index 1..3, slack)

    def __bool__(self) -> bool:
        return self.feasible


class AmbiguityInfeasibleError(ValueError):
    """The moment windows admit no distribution on the given support."""

    def __init__(self, report: FeasibilityReport):
        self.report = report
        if not report.violations:
            super().__init__("empty ambiguity set: a moment LP is infeasible "
                             "although no ray inequality is violated")
            return
        worst = min(report.violations, key=lambda v: v[2])
        super().__init__(
            f"empty ambiguity set: customer {worst[0]}, ray {worst[1]} "
            f"violated with slack {worst[2]:.6g}")


def theta_values(instance: Instance, model: DemandModel, y, jj: int) -> np.ndarray:
    """Second-stage cost at customer column ``jj`` for every support point."""
    cand, consts = _candidate_terms(instance, y, jj)
    d = model.support
    vals = d[:, None] * cand[None, :] + consts[None, :]
    return vals.max(axis=1) - instance.revenue[jj] * d


# ---------------------------------------------------------------------------
# Extreme rays and feasibility
# ---------------------------------------------------------------------------

def extreme_rays(support) -> list[tuple[float, float, float, float, float]]:
    """The three recession directions (alpha, delta1, delta2, gamma1, gamma2).

    Derived from the dual constraint rows: a parabola through two support
    points that stays nonnegative on the rest must pass through the two
    lowest or two highest points (opening up), or the extreme points
    (opening down).
    """
    d = np.asarray(support, dtype=float)
    d1, d2, dk1, dk = float(d[0]), float(d[1]), float(d[-2]), float(d[-1])
    return [
        (d1 * d2, 0.0, d1 + d2, 1.0, 0.0),
        (dk1 * dk, 0.0, dk1 + dk, 1.0, 0.0),
        (-d1 * dk, d1 + dk, 0.0, 0.0, 1.0),
    ]


def _ray_slacks(model: DemandModel, y, jj: int) -> np.ndarray:
    d = model.support
    d1, d2, dk1, dk = float(d[0]), float(d[1]), float(d[-2]), float(d[-1])
    _, m_lo, m_hi, s_lo, s_hi = _moment_windows(model, y, jj)
    return np.array([
        d1 * d2 - (d1 + d2) * m_lo + s_hi,
        dk1 * dk - (dk1 + dk) * m_lo + s_hi,
        -d1 * dk + (d1 + dk) * m_hi - s_lo,
    ])


def ambiguity_feasible(instance: Instance, model: DemandModel, y) -> FeasibilityReport:
    """Nonemptiness certificate: all three ray inequalities for every customer."""
    violations = []
    for jj, cid in enumerate(instance.customer_ids):
        slacks = _ray_slacks(model, y, jj)
        for r in np.flatnonzero(slacks < -RAY_TOL):
            violations.append((cid, int(r) + 1, float(slacks[r])))
    return FeasibilityReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Primal and dual LPs
# ---------------------------------------------------------------------------

def _moment_windows(model: DemandModel, y, jj: int):
    cid = model.customer_ids[jj]
    mu = mean_of(model, y, cid)
    s = variance_of(model, y, cid) + mu * mu
    eps = float(model.eps_mu[jj])
    return (mu, mu - eps, mu + eps,
            s * float(model.eps_sigma_lo[jj]), s * float(model.eps_sigma_hi[jj]))


def _primal_lp(model: DemandModel, theta: np.ndarray, y, jj: int) -> MilpModel:
    d = model.support
    _, m_lo, m_hi, s_lo, s_hi = _moment_windows(model, y, jj)
    m = MilpModel(f"moment_primal_{jj}")
    pis = [m.add_variable(f"pi_{k}") for k in range(len(d))]
    m.add_constraint("mass", {p: 1.0 for p in pis}, "=", 1.0)
    m.add_constraint("mean_hi", {p: float(dk) for p, dk in zip(pis, d)}, "<=", m_hi)
    m.add_constraint("mean_lo", {p: float(dk) for p, dk in zip(pis, d)}, ">=", m_lo)
    m.add_constraint("sec_hi", {p: float(dk) ** 2 for p, dk in zip(pis, d)}, "<=", s_hi)
    m.add_constraint("sec_lo", {p: float(dk) ** 2 for p, dk in zip(pis, d)}, ">=", s_lo)
    m.set_objective(LinearExpr({p: -float(t) for p, t in zip(pis, theta)}))
    return m.seal()


def worst_case_expectation(instance: Instance, model: DemandModel, y):
    """Adversarial expected cost and the attaining distribution, per LP solve."""
    from .solvers import simplex_solve

    report = ambiguity_feasible(instance, model, y)
    if not report:
        raise AmbiguityInfeasibleError(report)
    n_j, k = instance.n_customers, model.support_size
    pi = np.zeros((n_j, k))
    total = 0.0
    for jj in range(n_j):
        theta = theta_values(instance, model, y, jj)
        sol = simplex_solve(_primal_lp(model, theta, y, jj))
        if sol.status != "optimal":
            # The three rays do not cover every chord of the moment set.
            raise AmbiguityInfeasibleError(FeasibilityReport(False, ()))
        pi[jj] = sol.x
        total -= sol.objective
    return total, WorstCaseDistribution(pi=pi, value=total)


def worst_case_dual(instance: Instance, model: DemandModel, y):
    """Dual optimum of the inner problem; equals the primal by strong duality."""
    from .solvers import simplex_solve

    n_j = instance.n_customers
    d = model.support
    cert = {nm: np.zeros(n_j) for nm in ("alpha", "delta1", "delta2", "gamma1", "gamma2")}
    total = 0.0
    for jj in range(n_j):
        theta = theta_values(instance, model, y, jj)
        _, m_lo, m_hi, s_lo, s_hi = _moment_windows(model, y, jj)
        m = MilpModel(f"moment_dual_{jj}")
        a = m.add_variable("alpha", lower=-math.inf)
        d1 = m.add_variable("delta1")
        d2 = m.add_variable("delta2")
        g1 = m.add_variable("gamma1")
        g2 = m.add_variable("gamma2")
        for k, dk in enumerate(d):
            m.add_constraint(f"supp_{k}",
                             {a: 1.0, d1: float(dk), d2: -float(dk),
                              g1: float(dk) ** 2, g2: -float(dk) ** 2},
                             ">=", float(theta[k]))
        m.set_objective(LinearExpr({a: 1.0, d1: m_hi, d2: -m_lo, g1: s_hi, g2: -s_lo}))
        sol = simplex_solve(m.seal())
        if sol.status == "unbounded":
            report = ambiguity_feasible(instance, model, y)
            raise AmbiguityInfeasibleError(FeasibilityReport(False, report.violations))
        if sol.status != "optimal":
            raise RuntimeError(f"dual moment LP is {sol.status}")
        for nm in cert:
            cert[nm][jj] = sol.value(nm)
        total += sol.objective
    return total, DualCertificate(**cert)


def dual_value(model: DemandModel, y, cert: DualCertificate) -> float:
    """Dual objective at a given certificate; an upper bound when feasible."""
    mus = means_vector(model, y)
    s = variances_vector(model, y) + mus ** 2
    return float(np.sum(
        cert.alpha
        + cert.delta1 * (mus + model.eps_mu)
        - cert.delta2 * (mus - model.eps_mu)
        + cert.gamma1 * s * model.eps_sigma_hi
        - cert.gamma2 * s * model.eps_sigma_lo))


def check_certificate(instance: Instance, model: DemandModel, y,
                      cert: DualCertificate, tol: float = 1e-7) -> list[str]:
    """Dual-feasibility violations of a certificate (empty list when feasible)."""
    bad = []
    for nm in ("delta1", "delta2", "gamma1", "gamma2"):
        arr = getattr(cert, nm)
        if np.any(arr < -tol):
            bad.append(f"{nm} has negative entries")
    d = model.support
    for jj, cid in enumerate(instance.customer_ids):
        theta = theta_values(instance, model, y, jj)
        lhs = (cert.alpha[jj]
               + (cert.delta1[jj] - cert.delta2[jj]) * d
               + (cert.gamma1[jj] - cert.gamma2[jj]) * d ** 2)
        worst = float(np.min(lhs - theta))
        if worst < -tol:
            bad.append(f"customer {cid}: support constraint violated by {-worst:.3g}")
    return bad


# ---------------------------------------------------------------------------
# Bulk evaluation over many plans
# ---------------------------------------------------------------------------

def _pinned_moments(model: DemandModel) -> bool:
    return (np.all(model.eps_mu == 0.0)
            and np.all(model.eps_sigma_lo == 1.0)
            and np.all(model.eps_sigma_hi == 1.0))


def worst_case_values(instance: Instance, model: DemandModel, ys,
                      basis_limit: int = 40) -> np.ndarray:
    """Worst-case value for a batch of plans; inf where the set is empty.

    With pinned moments (zero mean radius, unit second-moment window) the
    per-customer LP reduces to three equality rows, so every vertex is a
    distribution on at most three support points; enumerating the
    precomputed bases is much faster than one simplex call per plan.
    """
    ys_arr = np.atleast_2d(np.asarray(ys, dtype=float))
    if _pinned_moments(model) and model.support_size <= basis_limit:
        return _vertex_enumeration_values(instance, model, ys_arr)
    out = np.empty(len(ys_arr))
    for n, y in enumerate(ys_arr):
        try:
            out[n] = worst_case_expectation(instance, model, y)[0]
        except AmbiguityInfeasibleError:
            out[n] = math.inf
    return out


def _vertex_enumeration_values(instance, model, ys: np.ndarray) -> np.ndarray:
    d = model.support
    k = len(d)
    triples = np.array(list(itertools.combinations(range(k), 3)))
    mats = np.stack([[np.ones(3), d[t], d[t] ** 2] for t in triples])   # (T, 3, 3)
    inv = np.linalg.inv(mats)

    n = ys.shape[0]
    mus = model.bar_mu[None, :] * (1.0 + ys @ model.lambda_mu.T)        # (N, J)
    variances = model.bar_sigma[None, :] ** 2 * (1.0 - ys @ model.lambda_sigma.T)
    total = np.zeros(n)
    feasible = np.ones(n, dtype=bool)
    cy_all = ys * instance.capacity[None, :]                            # (N, I)
    for jj in range(instance.n_customers):
        cand, gaps = _candidate_gaps(instance, jj)
        consts = cy_all @ gaps.T                                        # (N, |I|+1)
        theta = (d[None, None, :] * cand[None, :, None] + consts[:, :, None]).max(axis=1)
        theta -= instance.revenue[jj] * d[None, :]                      # (N, K)

        rhs = np.stack([np.ones(n), mus[:, jj],
                        variances[:, jj] + mus[:, jj] ** 2])            # (3, N)
        pi = np.einsum("tab,bn->tan", inv, rhs)                         # (T, 3, N)
        ok = np.all(pi >= -1e-9, axis=1)                                # (T, N)
        theta_b = theta[:, triples]                                     # (N, T, 3)
        obj = np.einsum("tan,nta->tn", pi, theta_b)
        obj = np.where(ok, obj, -np.inf)
        best = obj.max(axis=0)                                          # (N,)
        feasible &= np.isfinite(best)
        total += np.where(np.isfinite(best), best, 0.0)
    total[~feasible] = math.inf
    return total
