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

from .instance import (DemandModel, Instance, chord_slacks, chords,
                       moment_windows)
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
# Largest support on which pinned moments take the vertex path.
BASIS_LIMIT = 40


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
    """The recession directions (alpha, delta1, delta2, gamma1, gamma2).

    One per chord of :func:`~ddrloc.instance.chords`: the coefficients of its
    parabola ``sign * (d - a) * (d - b)`` in the dual constraint rows.
    """
    return [(a * b, 0.0, a + b, 1.0, 0.0) if sign > 0 else (-a * b, a + b, 0.0, 0.0, 1.0)
            for a, b, sign in chords(support)]


def ambiguity_feasible(instance: Instance, model: DemandModel, y) -> FeasibilityReport:
    """Nonemptiness certificate: every chord inequality for every customer."""
    slacks = chord_slacks(model.support, moment_windows(model, y), 1.0)[0]   # (J, chords)
    violations = tuple((instance.customer_ids[jj], int(r) + 1, float(slacks[jj, r]))
                       for jj, r in zip(*np.nonzero(slacks < -RAY_TOL)))
    return FeasibilityReport(not violations, violations)


# ---------------------------------------------------------------------------
# Primal and dual LPs
# ---------------------------------------------------------------------------

def _plan_windows(windows, n: int) -> list[list[float]]:
    """Plan ``n``'s ``[m_lo, m_hi, s_lo, s_hi]``, one list per customer."""
    return np.stack([w[n] for w in windows], axis=1).tolist()


def _primal_lp(support, theta: np.ndarray, window) -> MilpModel:
    """Moment LP of one customer over the support probabilities."""
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


def _plan_worst_case(instance: Instance, model: DemandModel, y, windows):
    """One plan's moment LPs, given its per-customer windows: (value, pi)."""
    from .solvers import simplex_solve

    pi = np.zeros((instance.n_customers, model.support_size))
    total = 0.0
    for jj, window in enumerate(windows):
        theta = theta_values(instance, model, y, jj)
        sol = simplex_solve(_primal_lp(model.support, theta, window))
        if sol.status != "optimal":
            # The checked chords do not cover every chord of the moment set.
            raise AmbiguityInfeasibleError(FeasibilityReport(False, ()))
        pi[jj] = sol.x
        total -= sol.objective
    return total, pi


def worst_case_expectation(instance: Instance, model: DemandModel, y):
    """Adversarial expected cost and the attaining distribution, per LP solve."""
    report = ambiguity_feasible(instance, model, y)
    if not report:
        raise AmbiguityInfeasibleError(report)
    total, pi = _plan_worst_case(instance, model, y,
                                 _plan_windows(moment_windows(model, y), 0))
    return total, WorstCaseDistribution(pi=pi, value=total)


def worst_case_dual(instance: Instance, model: DemandModel, y):
    """Dual optimum of the inner problem; equals the primal by strong duality."""
    from .solvers import simplex_solve

    n_j = instance.n_customers
    d = model.support
    cert = {nm: np.zeros(n_j) for nm in ("alpha", "delta1", "delta2", "gamma1", "gamma2")}
    total = 0.0
    for jj, (m_lo, m_hi, s_lo, s_hi) in enumerate(
            _plan_windows(moment_windows(model, y), 0)):
        theta = theta_values(instance, model, y, jj)
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
    m_lo, m_hi, s_lo, s_hi = (w[0] for w in moment_windows(model, y))
    return float(np.sum(cert.alpha + cert.delta1 * m_hi - cert.delta2 * m_lo
                        + cert.gamma1 * s_hi - cert.gamma2 * s_lo))


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


def worst_case_values(instance: Instance, model: DemandModel, ys) -> np.ndarray:
    """Worst-case value for a batch of plans; inf where the set is empty.

    The windows are computed once for the whole batch.  With pinned moments
    (zero mean radius, unit second-moment window) the per-customer LP
    reduces to three equality rows, so every vertex is a distribution on at
    most three support points; enumerating the precomputed bases is much
    faster than one simplex call per plan.  Otherwise plans that fail the
    chord test are inf, and the rest solve their moment LPs.
    """
    ys_arr = np.atleast_2d(np.asarray(ys, dtype=float))
    windows = moment_windows(model, ys_arr)
    if _pinned_moments(model) and model.support_size <= BASIS_LIMIT:
        return _vertex_enumeration_values(instance, model, ys_arr, windows)
    feasible = np.all(chord_slacks(model.support, windows, 1.0) >= -RAY_TOL, axis=(1, 2))
    out = np.full(len(ys_arr), math.inf)
    for n in np.flatnonzero(feasible):
        try:
            out[n] = _plan_worst_case(instance, model, ys_arr[n],
                                      _plan_windows(windows, n))[0]
        except AmbiguityInfeasibleError:
            pass
    return out


def _vertex_enumeration_values(instance, model, ys: np.ndarray, windows) -> np.ndarray:
    d = model.support
    k = len(d)
    triples = np.array(list(itertools.combinations(range(k), 3)))
    mats = np.stack([[np.ones(3), d[t], d[t] ** 2] for t in triples])   # (T, 3, 3)
    inv = np.linalg.inv(mats)

    n = ys.shape[0]
    mus, _, second, _ = windows               # pinned: each window is a point
    total = np.zeros(n)
    feasible = np.ones(n, dtype=bool)
    cy_all = ys * instance.capacity[None, :]                            # (N, I)
    for jj in range(instance.n_customers):
        cand, gaps = _candidate_gaps(instance, jj)
        consts = cy_all @ gaps.T                                        # (N, |I|+1)
        theta = (d[None, None, :] * cand[None, :, None] + consts[:, :, None]).max(axis=1)
        theta -= instance.revenue[jj] * d[None, :]                      # (N, K)

        rhs = np.stack([np.ones(n), mus[:, jj], second[:, jj]])         # (3, N)
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
