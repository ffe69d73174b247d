"""Worst-case expected second-stage cost over the moment ambiguity set.

For a fixed plan the adversary chooses, independently per customer, a
distribution on the finite support whose mean and second moment lie in the
decision-dependent windows.  Each customer therefore contributes a small LP
over the support probabilities; the total worst case is the sum.  The dual
of that LP, its extreme rays, and the chord test, which is exact and the
only test of emptiness, live here as well.

The value oracle :func:`worst_case_values` screens the plans with the chord
test, builds the tableau of every remaining (plan, customer) moment LP from
arrays and solves them a chunk at a time in one lockstep tableau simplex;
:func:`worst_case_expectation` takes that route with its one plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import (DemandModel, Instance, chord_slacks, chords,
                       moment_windows)
from .milp import LinearExpr, MilpModel
from .solvers import OPTIMAL, _simplex_batch
from .transport import _candidate_gaps, _candidate_terms, _theta

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
# A certificate's multipliers and support rows may fall this far short.
CERT_TOL = 1e-7


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
    violations: tuple      # (customer id, ray number in extreme_rays, from 1; slack)

    def __bool__(self) -> bool:
        return self.feasible


class AmbiguityInfeasibleError(ValueError):
    """The moment windows admit no distribution on the given support."""

    def __init__(self, report: FeasibilityReport):
        self.report = report
        worst = min(report.violations, key=lambda v: v[2])
        super().__init__(
            f"empty ambiguity set: customer {worst[0]}, ray {worst[1]} "
            f"violated with slack {worst[2]:.6g}")


def theta_values(instance: Instance, model: DemandModel, y, jj: int) -> np.ndarray:
    """Second-stage cost at customer column ``jj`` for every support point."""
    cand, consts = _candidate_terms(instance, y, jj)
    return _theta(model.support, cand, consts, instance.revenue[jj])


# ---------------------------------------------------------------------------
# Extreme rays and feasibility
# ---------------------------------------------------------------------------

def extreme_rays(support) -> list[tuple[float, float, float, float, float]]:
    """The recession directions (alpha, delta1, delta2, gamma1, gamma2).

    One per chord ``(a, b, c)`` of :func:`~ddrloc.instance.chords`, in its
    order: ``(a, b+, b-, c+, c-)``, the quadratic split into the dual rows.
    """
    return [(a, max(0.0, b), max(0.0, -b), max(0.0, c), max(0.0, -c))
            for a, b, c in chords(support)]


def _screen(instance: Instance, model: DemandModel, windows) -> FeasibilityReport:
    """The chord test of :func:`ambiguity_feasible` on one plan's windows."""
    slacks = chord_slacks(model.support, windows, 1.0)[0]   # (J, chords)
    violations = tuple((instance.customer_ids[jj], int(r) + 1, float(slacks[jj, r]))
                       for jj, r in zip(*np.nonzero(slacks < -RAY_TOL)))
    return FeasibilityReport(not violations, violations)


def ambiguity_feasible(instance: Instance, model: DemandModel, y) -> FeasibilityReport:
    """Nonemptiness test, exact: every chord inequality for every customer."""
    return _screen(instance, model, moment_windows(model, y))


# ---------------------------------------------------------------------------
# Primal and dual LPs
# ---------------------------------------------------------------------------

# Support points (blocks x K) stepped together per lockstep batch; bounds the
# tableau memory.  A chunk holds max(1, LP_CHUNK_POINTS // K) blocks.
LP_CHUNK_POINTS = 12_800
# Plans priced per chunk by worst_case_values and enumerate_oracle; bounds their memory.
PLAN_CHUNK = 1024
# Rows of one customer's moment LP: mass, mean_hi, mean_lo, sec_hi, sec_lo.
_MOMENT_SENSES = ("=", "<=", ">=", "<=", ">=")


def _moment_lps(instance: Instance, model: DemandModel, ys: np.ndarray, windows,
                with_pi: bool = False):
    """Every (plan, customer) moment LP of a batch, given the plans' windows.

    Builds the tableau of each block's LP over the support probabilities
    (rows in ``_MOMENT_SENSES`` order, cost -theta) straight from arrays and
    solves them ``LP_CHUNK_POINTS // K`` blocks at a time through the
    lockstep kernel :func:`~ddrloc.solvers._simplex_batch`, which gives each
    block the same bits alone as in any batch.  Returns
    ``(values, pi)``: each plan's worst case and, with ``with_pi``, the
    (N, |J|, K) adversarial probabilities.  The plans must pass the chord
    screen, which is exact, so an infeasible LP raises RuntimeError.
    """
    d = model.support
    n_plans, n_j = len(ys), instance.n_customers
    sq = [dk ** 2 for dk in d.tolist()]   # float ** 2, as tests/conftest.primal_lp, not x * x
    rows = np.array([np.ones(len(d)), d, d, sq, sq])
    cand, gaps = (np.array(a) for a in zip(*(_candidate_gaps(instance, jj)
                                             for jj in range(n_j))))
    m_lo, m_hi, s_lo, s_hi = windows
    rhs = np.stack([np.ones_like(m_lo), m_hi, m_lo, s_hi, s_lo], axis=-1).reshape(-1, 5)
    neg_value = np.empty(n_plans * n_j)
    pi = np.empty((n_plans * n_j, len(d))) if with_pi else None
    chunk = max(1, LP_CHUNK_POINTS // len(d))
    for start in range(0, n_plans * n_j, chunk):
        blocks = np.arange(start, min(start + chunk, n_plans * n_j))
        n, jj = np.divmod(blocks, n_j)
        consts = (instance.capacity * ys[n][:, None, :] * gaps[jj]).sum(axis=2)
        theta = _theta(d, cand[jj], consts, instance.revenue[jj][:, None])
        # 0.0 - theta, not -theta: a zero cost is +0.0.
        status, u, obj = _simplex_batch(rows, rhs[blocks], _MOMENT_SENSES, 0.0 - theta)
        if np.any(status != OPTIMAL):
            raise RuntimeError("a moment LP is infeasible although the chord screen passed")
        neg_value[blocks] = obj
        if with_pi:
            pi[blocks] = 0.0 + u   # no probability reads -0.0
    neg_value = neg_value.reshape(n_plans, n_j)
    values = np.zeros(n_plans)
    for col in neg_value.T:            # in customer order: the sum's bits depend on it
        values -= col
    return values, None if pi is None else pi.reshape(n_plans, n_j, len(d))


def worst_case_expectation(instance: Instance, model: DemandModel, y):
    """Adversarial expected cost and the attaining distribution, per LP solve."""
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    windows = moment_windows(model, ys)
    report = _screen(instance, model, windows)
    if not report:
        raise AmbiguityInfeasibleError(report)
    values, pi = _moment_lps(instance, model, ys, windows, with_pi=True)
    total = float(values[0])
    return total, WorstCaseDistribution(pi=pi[0], value=total)


def worst_case_dual(instance: Instance, model: DemandModel, y):
    """Dual optimum of the inner problem; equals the primal by strong duality."""
    from .solvers import simplex_solve

    report = ambiguity_feasible(instance, model, y)
    if not report:
        raise AmbiguityInfeasibleError(report)
    n_j = instance.n_customers
    d = model.support
    cert = {nm: np.zeros(n_j) for nm in ("alpha", "delta1", "delta2", "gamma1", "gamma2")}
    total = 0.0
    windows = np.stack([w[0] for w in moment_windows(model, y)], axis=1).tolist()
    for jj, (m_lo, m_hi, s_lo, s_hi) in enumerate(windows):
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
                      cert: DualCertificate) -> list[str]:
    """Dual-feasibility violations of a certificate (empty list when feasible)."""
    bad = []
    for nm in ("delta1", "delta2", "gamma1", "gamma2"):
        arr = getattr(cert, nm)
        if np.any(arr < -CERT_TOL):
            bad.append(f"{nm} has negative entries")
    d = model.support
    for jj, cid in enumerate(instance.customer_ids):
        theta = theta_values(instance, model, y, jj)
        lhs = (cert.alpha[jj]
               + (cert.delta1[jj] - cert.delta2[jj]) * d
               + (cert.gamma1[jj] - cert.gamma2[jj]) * d ** 2)
        worst = float(np.min(lhs - theta))
        if worst < -CERT_TOL:
            bad.append(f"customer {cid}: support constraint violated by {-worst:.3g}")
    return bad


# ---------------------------------------------------------------------------
# Bulk evaluation over many plans
# ---------------------------------------------------------------------------

def worst_case_values(instance: Instance, model: DemandModel, ys) -> np.ndarray:
    """Worst-case value for a batch of plans; inf where the set is empty.

    Plans are priced :data:`PLAN_CHUNK` at a time, each with the bits it has
    alone.  Those that fail the chord test, which is exact, are inf, and the
    moment LPs of the rest are solved in lockstep batches (:func:`_moment_lps`).
    """
    ys_arr = np.atleast_2d(np.asarray(ys, dtype=float))
    out = np.full(len(ys_arr), math.inf)
    for start in range(0, len(ys_arr), PLAN_CHUNK):
        chunk, part = ys_arr[start:start + PLAN_CHUNK], out[start:start + PLAN_CHUNK]
        windows = moment_windows(model, chunk)
        ok = np.all(chord_slacks(model.support, windows, 1.0) >= -RAY_TOL, axis=(1, 2))
        part[ok] = _moment_lps(instance, model, chunk[ok], tuple(w[ok] for w in windows))[0]
    return out
