"""Worst-case expected second-stage cost over the moment ambiguity set.

For a fixed plan the adversary chooses, independently per customer, a
distribution on the finite support whose mean and second moment lie in the
decision-dependent windows.  Each customer therefore contributes a small LP
over the support probabilities; the total worst case is the sum.  The chord
test of emptiness, which is exact, lives here as well.

The value oracle :func:`worst_case_values` screens the plans with the chord
test, builds the tableau of every remaining (plan, customer) moment LP from
arrays and solves them a chunk at a time in one lockstep tableau simplex.
:func:`worst_case_expectation` and :func:`worst_case_dual` take that route
with their one plan: the solve that gives the value and the adversarial
probabilities ends on a basis whose row duals are the dual certificate.

Two closed-form lower bounds on a plan's robust objective serve the robust
solve, :func:`~ddrloc.solvers.enumerate_oracle`, which prices only the plans
they cannot rule out: Jensen's inequality at the ends of each customer's
achievable means, and a mixture of two-point distributions in the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import DemandModel, Instance, chord_slacks, moment_windows
from .solvers import OPTIMAL, _simplex_batch
from .transport import _intercepts, _pieces, _theta

__all__ = [
    "WorstCaseDistribution",
    "DualCertificate",
    "AmbiguityInfeasibleError",
    "FeasibilityReport",
    "support_theta",
    "worst_case_expectation",
    "worst_case_dual",
    "check_certificate",
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
    violations: tuple      # (customer id, chord number in chords, from 1; slack)

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


def support_theta(instance: Instance, model: DemandModel, y) -> np.ndarray:
    """Second-stage cost theta_j(d_k; y) of every customer at every support
    point under plan ``y``, shape (|J|, K)."""
    cand, gaps = _pieces(instance)
    return _theta(model.support, cand, _intercepts(instance, gaps, y),
                  instance.revenue[:, None])


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

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
# Plans per chunk of worst_case_values and of enumerate_oracle's bound passes;
# bounds their memory.
PLAN_CHUNK = 1024
# Rows of one customer's moment LP: mass, mean_hi, mean_lo, sec_hi, sec_lo.
_MOMENT_SENSES = ("=", "<=", ">=", "<=", ">=")
# The LP minimises -theta . pi, so the certificate's (alpha, delta1, delta2,
# gamma1, gamma2) are the row duals of those rows times these signs.
_DUAL_SIGNS = np.array([-1.0, -1.0, 1.0, -1.0, 1.0])


def _moment_lps(instance: Instance, model: DemandModel, ys: np.ndarray, windows,
                detail: bool = False):
    """Every (plan, customer) moment LP of a batch, given the plans' windows.

    Builds the tableau of each block's LP over the support probabilities
    (rows in ``_MOMENT_SENSES`` order, cost -theta) straight from arrays and
    solves them ``LP_CHUNK_POINTS // K`` blocks at a time through the
    lockstep kernel :func:`~ddrloc.solvers._simplex_batch`, which gives each
    block the same bits alone as in any batch.  Returns
    ``(values, pi, multipliers)``: each plan's worst case and, with
    ``detail`` (else None), the (N, |J|, K) adversarial probabilities and
    the (N, |J|, 5) ``(alpha, delta1, delta2, gamma1, gamma2)`` of each final
    basis.  The plans must pass the chord screen, which is exact, so an
    infeasible LP raises RuntimeError.
    """
    d = model.support
    n_plans, n_j = len(ys), instance.n_customers
    sq = [dk ** 2 for dk in d.tolist()]   # float ** 2, as tests/conftest.primal_lp, not x * x
    rows = np.array([np.ones(len(d)), d, d, sq, sq])
    cand, gaps = _pieces(instance)
    m_lo, m_hi, s_lo, s_hi = windows
    rhs = np.stack([np.ones_like(m_lo), m_hi, m_lo, s_hi, s_lo], axis=-1).reshape(-1, 5)
    neg_value = np.empty(n_plans * n_j)
    pi = np.empty((n_plans, n_j, len(d))) if detail else None
    mult = np.empty((n_plans, n_j, 5)) if detail else None
    chunk = max(1, LP_CHUNK_POINTS // len(d))
    for start in range(0, n_plans * n_j, chunk):
        blocks = np.arange(start, min(start + chunk, n_plans * n_j))
        n, jj = np.divmod(blocks, n_j)
        theta = _theta(d, cand[jj], _intercepts(instance, gaps[jj], ys[n]),
                       instance.revenue[jj][:, None])
        # 0.0 - theta, not -theta: a zero cost is +0.0.
        status, u, obj, y = _simplex_batch(rows, rhs[blocks], _MOMENT_SENSES, 0.0 - theta)
        if np.any(status != OPTIMAL):
            raise RuntimeError("a moment LP is infeasible although the chord screen passed")
        neg_value[blocks] = obj
        if detail:             # no probability or multiplier reads -0.0
            pi.reshape(-1, len(d))[blocks] = 0.0 + u
            mult.reshape(-1, 5)[blocks] = y * _DUAL_SIGNS + 0.0
    neg_value = neg_value.reshape(n_plans, n_j)
    values = np.zeros(n_plans)
    for col in neg_value.T:            # in customer order: the sum's bits depend on it
        values -= col
    return values, pi, mult


def _one_plan(instance: Instance, model: DemandModel, y):
    """:func:`_moment_lps`'s ``(value, pi, multipliers)`` and the windows of one
    plan, without the plan axis; AmbiguityInfeasibleError if its set is empty."""
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    windows = moment_windows(model, ys)
    report = _screen(instance, model, windows)
    if not report:
        raise AmbiguityInfeasibleError(report)
    values, pi, mult = _moment_lps(instance, model, ys, windows, detail=True)
    return float(values[0]), pi[0], mult[0], tuple(w[0] for w in windows)


def worst_case_expectation(instance: Instance, model: DemandModel, y):
    """Adversarial expected cost and the attaining distribution, per LP solve."""
    total, pi, _, _ = _one_plan(instance, model, y)
    return total, WorstCaseDistribution(pi=pi, value=total)


def worst_case_dual(instance: Instance, model: DemandModel, y):
    """Dual objective and optimum of the inner problem: the row duals of the
    final basis of :func:`worst_case_expectation`'s solve, so the two values
    agree up to rounding."""
    _, _, mult, (m_lo, m_hi, s_lo, s_hi) = _one_plan(instance, model, y)
    cert = DualCertificate(*np.ascontiguousarray(mult.T))
    total = float(np.sum(cert.alpha + cert.delta1 * m_hi - cert.delta2 * m_lo
                         + cert.gamma1 * s_hi - cert.gamma2 * s_lo))
    return total, cert


def check_certificate(instance: Instance, model: DemandModel, y,
                      cert: DualCertificate) -> list[str]:
    """Dual-feasibility violations of a certificate (empty list when feasible)."""
    bad = [f"{nm} has negative entries" for nm in ("delta1", "delta2", "gamma1", "gamma2")
           if np.any(getattr(cert, nm) < -CERT_TOL)]
    d = model.support
    worst = (cert.alpha[:, None] + (cert.delta1 - cert.delta2)[:, None] * d
             + (cert.gamma1 - cert.gamma2)[:, None] * d ** 2
             - support_theta(instance, model, y)).min(axis=1)
    return bad + [f"customer {cid}: support constraint violated by {-w:.3g}"
                  for cid, w in zip(instance.customer_ids, worst) if w < -CERT_TOL]


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


# ---------------------------------------------------------------------------
# Closed-form lower bounds for the robust solve
# ---------------------------------------------------------------------------

def _mean_intervals(model: DemandModel, windows):
    """Each customer's achievable means ``(a, b)``, arrays of the windows' shape.

    On the support d_0 < ... < d_{K-1}, L is the lower hull of (d, d^2), the
    piecewise-linear interpolant of d^2, and f(m) = (d_0 + d_{K-1}) m -
    d_0 d_{K-1} is the down-chord; the (E d, E d^2) pairs of distributions
    on the support fill L(m) <= s <= f(m) (Karlin & Studden, 1966).  So a
    mean m is some distribution's in the set of windows (m_lo, m_hi, s_lo,
    s_hi) exactly when m is in [m_lo, m_hi], L(m) <= s_hi and f(m) >= s_lo:
    when a <= m <= b with a = max(m_lo, d_0, f^-1(s_lo)) and b = min(m_hi,
    d_{K-1}, L^-1(s_hi)).  L^-1 extends its end edges linearly, so ``a > b``
    exactly when a chord of :func:`~ddrloc.instance.chords` fails.
    """
    d = model.support
    lo, hi = d[0], d[-1]
    m_lo, m_hi, s_lo, s_hi = windows
    k = np.clip(np.searchsorted(d ** 2, s_hi, side="right") - 1, 0, len(d) - 2)
    p, q = d[k], d[k + 1]
    a = np.maximum(np.maximum(m_lo, lo), (s_lo + lo * hi) / (lo + hi))
    b = np.minimum(np.minimum(m_hi, hi), (s_hi + p * q) / (p + q))
    return a, b


def _plan_theta(instance: Instance, ys):
    """theta_j under each plan of ``ys`` (P, |I|), as a function of one
    demand per (plan, customer), shape (P, |J|).

    A demand axis of a few points last would make every step of
    :func:`~ddrloc.transport._theta` loop over a few elements, so each call
    takes one.  The intercepts come from one matrix product, not from
    :func:`~ddrloc.transport._intercepts`: a bound needs no bits that hold
    for a plan alone, and the elementwise form would make a (P, |J|, |I|+1,
    |I|) temporary.
    """
    cand, gaps = _pieces(instance)
    consts = ((ys * instance.capacity) @ gaps.reshape(-1, instance.n_facilities).T
              ).reshape((len(ys),) + cand.shape)
    revenue = instance.revenue[:, None]
    return lambda m: _theta(m[..., None], cand, consts, revenue)[..., 0]


def _jensen_bounds(instance: Instance, model: DemandModel, ys):
    """``(kept, bound)``: the plans whose ambiguity sets may be nonempty, and
    for each kept plan a lower bound on its robust objective.

    A plan is dropped only when some customer has ``a > b`` by more than
    ``RAY_TOL * (1 + 1 / (d_0 + d_1))``.  The screen lets each chord fall
    ``RAY_TOL`` short, which moves an end of [a, b] by at most ``RAY_TOL``
    along the mean axes or ``RAY_TOL / (d_0 + d_1)`` along the flattest
    chord, so every plan the screen passes is kept; a kept plan that it
    fails is priced as inf.

    The bound is Jensen's inequality: theta_j is convex, so every
    distribution in the set has E theta_j >= theta_j(its mean), and every
    mean in [a, b] is some distribution's.  The worst case is therefore at
    least max(theta_j(a), theta_j(b)), summed over customers, plus the
    opening cost.
    """
    d = model.support
    a, b = _mean_intervals(model, moment_windows(model, ys))
    kept = np.all(a <= b + RAY_TOL * (1.0 + 1.0 / (d[0] + d[1])), axis=1)
    ys = ys[kept]
    theta = _plan_theta(instance, ys)
    return kept, ys @ instance.open_cost + np.maximum(theta(a[kept]), theta(b[kept])).sum(axis=1)


@np.errstate(divide="ignore", invalid="ignore")
def _mixture_bounds(instance: Instance, model: DemandModel, ys):
    """A lower bound on each plan's robust objective, at least its Jensen bound.

    At a mean m in [a, b], the distribution on the two support points around
    m has second moment L(m), and the one on d_0 and d_{K-1} has f(m).  Both
    have mean m, so a mixture of them with E d^2 = min(s_hi, f(m)) lies in
    the set: that second moment is at least s_lo because m >= a and at least
    L(m) because m <= b.  Its E theta_j is a lower bound on the worst case,
    and at m = a or b it is at least theta_j(m) by Jensen's inequality.  The
    bound takes the best of m in {a, b, (a + b) / 2} for each customer, in
    the manner of the Edmundson-Madansky bound (Madansky, Ann. Math. Stat.
    30, 1959), plus the opening cost.
    """
    d = model.support
    lo, hi = d[0], d[-1]
    windows = moment_windows(model, ys)
    a, b = _mean_intervals(model, windows)
    theta = _plan_theta(instance, ys)
    theta_lo, theta_hi = theta(np.full(a.shape, lo)), theta(np.full(a.shape, hi))
    best = np.full(a.shape, -np.inf)
    for m in (a, b, 0.5 * (a + b)):
        k = np.clip(np.searchsorted(d, m, side="right") - 1, 0, len(d) - 2)
        p, q = d[k], d[k + 1]
        t = np.clip((m - p) / (q - p), 0.0, 1.0)
        u = np.clip((m - lo) / (hi - lo), 0.0, 1.0)
        inner = (1.0 - t) * p ** 2 + t * q ** 2                 # L(m)
        chord = (1.0 - u) * lo ** 2 + u * hi ** 2               # f(m)
        w = np.where(chord > inner, np.clip((np.minimum(windows[3], chord) - inner)
                                            / (chord - inner), 0.0, 1.0), 0.0)
        value = ((1.0 - w) * ((1.0 - t) * theta(p) + t * theta(q))
                 + w * ((1.0 - u) * theta_lo + u * theta_hi))
        best = np.maximum(best, value)
    return ys @ instance.open_cost + best.sum(axis=1)
