"""Worst-case expected second-stage cost over the moment ambiguity set.

For a fixed plan the adversary chooses, independently per customer, a
distribution on the finite support whose mean and second moment lie in the
decision-dependent windows.  Each customer therefore contributes a small LP
over the support probabilities; the total worst case is the sum.  The chord
test of emptiness, which is exact, lives here as well.

The value oracle :func:`worst_case_values` screens the plans with the chord
test, builds the tableau of every remaining (plan, customer) moment LP from
arrays and solves them a chunk at a time in the lockstep tableau simplex below.
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
from .transport import _intercepts, _pieces, _plan_theta, _theta

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
# Lockstep tableau simplex
# ---------------------------------------------------------------------------

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
OPTIMAL, INFEASIBLE, UNBOUNDED = 0, 1, 2
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


def _simplex_batch(A, b, senses, c):
    """Solve ``min c.u  s.t.  A u (senses) b,  u >= 0`` for a batch of blocks.

    ``A`` (m, n) and the row senses are shared, ``b`` is (B, m) and ``c``
    is (B, n).  Blocks with the same rows of negative right-hand side share
    a tableau shape and are stepped together by :func:`_lockstep_simplex`,
    so each block gets the same pivots, values and status alone as in any
    batch.  Returns ``(status, u, objective, y)`` with codes OPTIMAL,
    INFEASIBLE, UNBOUNDED and ``y`` (B, m) the row duals ``c_B B^-1`` of the
    final basis; all but the status are meaningful only where it is OPTIMAL.
    """
    status = np.empty(len(b), dtype=int)
    u = np.empty(c.shape)
    obj = np.empty(len(b))
    y = np.empty(b.shape)
    patterns, group = np.unique(b < 0, axis=0, return_inverse=True)
    for g in range(len(patterns)):
        sel = np.flatnonzero(group.ravel() == g)
        status[sel], u[sel], obj[sel], y[sel] = _lockstep_simplex(
            *_initial_tableau(A, b[sel], senses), c[sel])
        y[sel] *= np.where(patterns[g], -1.0, 1.0)   # a row negated for b >= 0
    return status, u, obj, y


def _initial_tableau(A, b, senses):
    """Phase-1 tableaux ``[A | slack/surplus | artificial]`` of a batch.

    ``A`` (m, n) is shared and ``b`` is (B, m), with the same rows of
    negative right-hand side in every block.  Those rows are negated to
    make b >= 0 and their senses flipped.  Then comes one slack (+1,
    ``<=``) or surplus (-1, ``>=``) column per inequality row and one
    artificial column per row that is not ``<=``, each in row order.
    Returns ``(T, b, basis, artificial)``: the basis starts at each ``<=``
    row's slack and at every other row's artificial, and ``artificial``
    masks the artificial columns.
    """
    n_blocks, (n_rows, n_struct) = len(b), A.shape
    flip = np.where(b[0] < 0, -1.0, 1.0)
    senses = [_FLIPPED[s] if f < 0 else s for s, f in zip(senses, flip)]
    ineq = [r for r, s in enumerate(senses) if s != "="]
    arts = [r for r, s in enumerate(senses) if s != "<="]
    extra = np.zeros((n_rows, len(ineq) + len(arts)))
    for i, r in enumerate(ineq):
        extra[r, i] = 1.0 if senses[r] == "<=" else -1.0
    for i, r in enumerate(arts):
        extra[r, len(ineq) + i] = 1.0
    T = np.concatenate([np.broadcast_to(A * flip[:, None], (n_blocks, n_rows, n_struct)),
                        np.broadcast_to(extra, (n_blocks,) + extra.shape)], axis=2)
    slack = {r: n_struct + i for i, r in enumerate(ineq)}
    art = {r: n_struct + len(ineq) + i for i, r in enumerate(arts)}
    start = [slack[r] if s == "<=" else art[r] for r, s in enumerate(senses)]
    artificial = np.zeros(T.shape[2], dtype=bool)
    artificial[list(art.values())] = True
    return T, b * flip, np.tile(np.array(start, dtype=int), (n_blocks, 1)), artificial


def _lockstep_simplex(T, b, basis, artificial, c):
    """Two-phase primal simplex on a batch of same-shaped tableaux, in lockstep.

    Every block follows the same rules on its own: phase 1 on the
    artificials, then artificials driven out of the basis
    where a nonzero non-artificial entry allows, then phase 2 on the cost
    ``c`` (B, n_struct) with the artificials blocked.  Each reduction over
    rows is a stacked ``matmul``, which rounds exactly as one block's
    vector-matrix product does, so a block's pivots do not depend on its
    batch.  ``T``, ``b`` and ``basis`` are updated in place.  Returns
    ``(status, u, objective, y)``: the status codes, the structural values,
    ``c . u`` and the row duals ``c_B B^-1`` per block, whose ``B^-1`` is the
    final tableau at the columns of the initial basis, the identity.
    """
    n_blocks, n_rows, n_total = T.shape
    start = basis[0].copy()
    status = np.full(n_blocks, OPTIMAL)
    live = np.arange(n_blocks)
    if artificial.any():
        c1 = np.broadcast_to(artificial.astype(float), (n_blocks, n_total))
        _run(T, b, basis, c1, np.zeros(n_total, dtype=bool), live, status)
        left = (artificial[basis].astype(float)[:, None, :] @ b[:, :, None])[:, 0, 0]
        status[(status != OPTIMAL) | (left > FEAS_TOL)] = INFEASIBLE
        live = np.flatnonzero(status == OPTIMAL)
        # A pivot on row r changes only row r's basic column, so the rows to
        # visit are known up front.
        for r in np.flatnonzero(artificial[basis[live]].any(axis=0)):
            nz = ~artificial & (np.abs(T[live, r]) > PIVOT_TOL)
            go = artificial[basis[live, r]] & nz.any(axis=1)
            k = live[go]
            if k.size:
                Tk, bk, j = T[k], b[k], nz[go].argmax(axis=1)
                _pivot(Tk, bk, np.arange(k.size), np.full(k.size, r), j)
                T[k], b[k] = Tk, bk
                basis[k, r] = j

    n_struct = c.shape[1]
    c2 = np.zeros((n_blocks, n_total))
    c2[:, :n_struct] = c
    _run(T, b, basis, c2, artificial, live, status)
    u = np.zeros((n_blocks, n_total))
    np.put_along_axis(u, basis, b, axis=1)
    u = np.ascontiguousarray(u[:, :n_struct])
    y = (np.take_along_axis(c2, basis, axis=1)[:, None, :] @ T[:, :, start])[:, 0]
    return status, u, (c[:, None, :] @ u[:, :, None])[:, 0, 0], y


def _pivot(T, b, n, r, j):
    """Pivot block n[i] of (T, b) on row r[i], column j[i]; returns the pivot rows."""
    piv = T[n, r, j]
    prow = T[n, r] / piv[:, None]
    T[n, r] = prow
    b_r = b[n, r] / piv
    b[n, r] = b_r
    fac = T[n, :, j]
    fac[n, r] = 0.0
    T -= fac[:, :, None] * prow[:, None, :]
    b -= fac * b_r[:, None]
    return T[n, r]


@np.errstate(divide="ignore", invalid="ignore")
def _run(T, b, basis, c, blocked, live, status):
    """Pivot blocks ``live`` to optimality of ``c`` over their (T, b, basis).

    Dantzig pricing (lowest index among ties) over the unblocked columns,
    ratio ties to the lowest basis index, and Bland's rule for good once the
    objective has stalled for more than m + 10 pivots.  A block leaves the
    batch when it is optimal or unbounded; its state and status are written
    back then.
    """
    if not live.size:
        return
    n_rows, n_total = T.shape[1:]
    free = ~blocked
    Tw, bw, bas, cw = T[live], b[live], basis[live], c[live]
    n = np.arange(len(live))
    c_basis = cw[n[:, None], bas][:, None, :]
    zrow = (c_basis @ Tw)[:, 0] - cw
    last = (c_basis @ bw[:, :, None])[:, 0, 0]
    stall = np.zeros(len(live), dtype=int)
    bland = np.zeros(len(live), dtype=bool)
    for _ in range(50 * (n_rows + n_total) + 1000):
        elig = free & (zrow > PIVOT_TOL)
        j = np.where(elig, zrow, -np.inf).argmax(axis=1)
        if bland.any():
            j = np.where(bland, elig.argmax(axis=1), j)
        col = Tw[n, :, j]
        pos = col > PIVOT_TOL
        done = ~(elig[n, j] & pos.any(axis=1))
        if done.any():
            out = live[done]
            status[out] = np.where(elig[n, j][done], UNBOUNDED, OPTIMAL)
            T[out], b[out], basis[out] = Tw[done], bw[done], bas[done]
            keep = ~done
            if not keep.any():
                return
            live, Tw, bw, bas, cw, zrow, last, stall, bland, j, col, pos = (
                a[keep] for a in (live, Tw, bw, bas, cw, zrow, last, stall, bland,
                                  j, col, pos))
            n = np.arange(len(live))
        ratios = np.where(pos, bw / col, np.inf)
        tied = ratios <= ratios.min(axis=1, keepdims=True) + 1e-12
        r = np.where(tied, bas, n_total).argmin(axis=1)
        zrow -= zrow[n, j][:, None] * _pivot(Tw, bw, n, r, j)
        bas[n, r] = j
        obj = (cw[n[:, None], bas][:, None, :] @ bw[:, :, None])[:, 0, 0]
        better = obj < last - 1e-12
        last = np.where(better, obj, last)
        stall = np.where(better, 0, stall + 1)
        bland |= stall > n_rows + 10
    raise RuntimeError("simplex iteration limit exceeded")


# ---------------------------------------------------------------------------
# Primal and dual LPs
# ---------------------------------------------------------------------------

# Support points (blocks x K) stepped together per lockstep batch; bounds the
# tableau memory.  A chunk holds max(1, LP_CHUNK_POINTS // K) blocks.
LP_CHUNK_POINTS = 12_800
# Plans per chunk of worst_case_values and of the robust and SP bound passes;
# bounds their memory.  At I=10, J=20 a chunk's (plans, |J|, |I|+1) table is
# 450 KB: it stays in a core's cache, and the allocator reuses its memory
# from call to call, where tables a few times larger are handed back to the
# system after each pass and faulted in again on the next.
PLAN_CHUNK = 256
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
    lockstep kernel :func:`_simplex_batch`, which gives each block the same
    bits alone as in any batch.  Returns
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
