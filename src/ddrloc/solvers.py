"""Numerical kernels: model LPs, branch-and-bound, the lockstep simplex.

HiGHS (via scipy) solves every model LP: :func:`simplex_solve` with dual
values, :func:`branch_and_bound` for the MILPs' relaxations.  The value
oracle's moment LPs go through a separate tableau simplex that steps a batch
of tableaux in lockstep, so a block gets the same bits alone as in any batch,
and reads the moment LPs' dual certificates off the final bases.
:func:`enumerate_oracle` is the robust solve: it bounds every plan from
below in closed form, a chunk at a time, and prices only the plans whose
bound can beat the best plan priced.  :func:`exact_solve`, its cross-check,
solves the paper's robust MILP once at derived dual bounds and checks its
plan with the value oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .instance import plans_under_budget
from .milp import MilpModel, build_dddr, derive_dual_bounds

__all__ = [
    "LpSolution",
    "MipSolution",
    "simplex_solve",
    "branch_and_bound",
    "enumerate_oracle",
    "exact_solve",
]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
# Branch-and-bound prunes nodes within ABS_GAP of the best plan found; a
# binary within INT_TOL of 0 or 1 counts as integral.
ABS_GAP = 1e-6
INT_TOL = 1e-6
# enumerate_oracle prices PRICE_BATCH plans at a time, and skips a plan only
# when its lower bound exceeds the incumbent by more than BOUND_SLACK relative
# (at least BOUND_SLACK absolute): the bounds use other arithmetic than the
# value oracle and came out up to 7.3e-12 above it where they are tight, at
# objectives of order 1e4.
PRICE_BATCH = 16
BOUND_SLACK = 1e-9


@dataclass
class LpSolution:
    status: str                       # optimal | infeasible | unbounded
    x: np.ndarray | None              # aligned with model.variables
    duals: np.ndarray | None          # aligned with model.constraints
    objective: float


@dataclass
class MipSolution:
    status: str                       # optimal | infeasible | node_limit
    x: dict[str, float] | None
    objective: float
    bound: float
    node_count: int


# ---------------------------------------------------------------------------
# Model LPs (HiGHS)
# ---------------------------------------------------------------------------

def _scipy_arrays(m: MilpModel):
    """``linprog``'s ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``; ``>=`` rows negated."""
    idx = {v.name: i for i, v in enumerate(m.variables)}
    n = len(m.variables)
    c = np.zeros(n)
    for name, a in m.objective.coeffs.items():
        c[idx[name]] += a
    b_ub, b_eq = [], []
    data_ub, data_eq = ([], [], []), ([], [], [])
    for con in m.constraints:
        if con.sense == "=":
            r = len(b_eq)
            b_eq.append(con.rhs)
            store = data_eq
        else:
            sgn = 1.0 if con.sense == "<=" else -1.0
            r = len(b_ub)
            b_ub.append(sgn * con.rhs)
            store = data_ub
        for name, a in con.coeffs.items():
            store[0].append(r)
            store[1].append(idx[name])
            store[2].append(a if con.sense != ">=" else -a)
    A_ub = sp.csr_matrix((data_ub[2], (data_ub[0], data_ub[1])),
                         shape=(len(b_ub), n)) if b_ub else None
    A_eq = sp.csr_matrix((data_eq[2], (data_eq[0], data_eq[1])),
                         shape=(len(b_eq), n)) if b_eq else None
    bounds = [(v.lower, v.upper) for v in m.variables]
    return c, A_ub, np.array(b_ub), A_eq, np.array(b_eq), bounds


def _highs(c, A_ub, b_ub, A_eq, b_eq, bounds, presolve):
    """HiGHS on :func:`_scipy_arrays`' output: ``(status, linprog result)``.

    Presolve can move an exact zero of the optimum by a rounding error, so
    :func:`simplex_solve` turns it off; :func:`branch_and_bound` keeps the
    branching path that presolve's choice of optimal vertex gives it.
    """
    res = linprog(c, A_ub=A_ub, b_ub=b_ub if len(b_ub) else None,
                  A_eq=A_eq, b_eq=b_eq if len(b_eq) else None,
                  bounds=bounds, method="highs", options={"presolve": presolve})
    if res.status == 2:
        return "infeasible", res
    if res.status == 3:
        return "unbounded", res
    if not res.success:
        raise RuntimeError(f"LP backend failure: {res.message}")
    return "optimal", res


def simplex_solve(m: MilpModel) -> LpSolution:
    """HiGHS on a continuous model; ``duals[i]`` is d(objective)/d(rhs of row i)."""
    if m.binary_names():
        raise ValueError("simplex_solve handles continuous models only; "
                         "relax binaries first")
    status, res = _highs(*_scipy_arrays(m), False)
    if status == "infeasible":
        return LpSolution("infeasible", None, None, math.inf)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, -math.inf)
    eq = np.array([con.sense == "=" for con in m.constraints], dtype=bool)
    duals = np.empty(len(eq))
    duals[eq], duals[~eq] = res.eqlin.marginals, res.ineqlin.marginals
    duals *= [-1.0 if con.sense == ">=" else 1.0 for con in m.constraints]
    return LpSolution("optimal", res.x, duals, float(res.fun + m.objective.constant))


# ---------------------------------------------------------------------------
# Lockstep tableau simplex
# ---------------------------------------------------------------------------

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
# Branch-and-bound
# ---------------------------------------------------------------------------

def branch_and_bound(m: MilpModel, node_limit: int = 200_000) -> MipSolution:
    """Best-bound branch-and-bound on the binary variables, HiGHS relaxations.

    Branches on the most fractional binary (ties to the lowest index);
    deterministic node ordering.  A search stopped by ``node_limit`` with
    open nodes left reports ``"node_limit"``, the best plan found (None when
    there is none yet) and the lowest bound among the open nodes.
    """
    bin_idx = [m.var_index(nm) for nm in m.binary_names()]
    names = [v.name for v in m.variables]
    *arrays, base_bounds = _scipy_arrays(m)
    inc_x, inc_obj = None, math.inf
    nodes = 0
    tick = itertools.count()
    heap = [(-math.inf, next(tick), {})]
    while heap and heap[0][0] < inc_obj - ABS_GAP and nodes < node_limit:
        _, _, fixings = heapq.heappop(heap)
        nodes += 1
        bounds = list(base_bounds)
        for i, val in fixings.items():
            bounds[i] = (val, val)
        status, res = _highs(*arrays, bounds, True)
        if status != "optimal":
            continue
        x, obj = res.x, float(res.fun + m.objective.constant)
        if obj >= inc_obj - ABS_GAP:
            continue
        fracs = np.array([abs(x[i] - round(x[i])) for i in bin_idx])
        if np.all(fracs <= INT_TOL):
            inc_obj = obj
            inc_x = {nm: float(v) for nm, v in zip(names, x)}
            for i in bin_idx:
                inc_x[names[i]] = float(round(x[i]))
            continue
        j = bin_idx[int(np.argmax(fracs))]
        for val in (0.0, 1.0):
            child = dict(fixings)
            child[j] = val
            heapq.heappush(heap, (obj, next(tick), child))
    bound = float(min(heap[0][0], inc_obj)) if heap else inc_obj
    if heap and heap[0][0] < inc_obj - ABS_GAP:
        return MipSolution("node_limit", inc_x, inc_obj, bound, nodes)
    if inc_x is None:
        return MipSolution("infeasible", None, math.inf, math.inf, nodes)
    return MipSolution("optimal", inc_x, inc_obj, bound, nodes)


# ---------------------------------------------------------------------------
# Enumeration oracle and exact solve
# ---------------------------------------------------------------------------

def enumerate_oracle(instance, model, budget: int | None = None):
    """The plan of least worst-case objective, by a bound-ordered search.

    Pass 1 walks every plan under the budget ``worstcase.PLAN_CHUNK`` at a
    time, drops those whose ambiguity set is empty and gives the rest their
    Jensen bound; the one array that grows with the plan count is a (code,
    bound) pair per kept plan.  The :data:`PRICE_BATCH` plans of lowest
    Jensen bound are priced for an incumbent.  Pass 2 gives the mixture bound
    to the plans whose Jensen bound is at most the incumbent plus
    :data:`BOUND_SLACK`, and prices them :data:`PRICE_BATCH` at a time in
    that bound's order until the next bound exceeds the incumbent plus the
    slack.  Both bounds are lower bounds on a plan's objective (see
    ``worstcase._jensen_bounds`` and ``worstcase._mixture_bounds``), so no
    plan left unpriced can beat or tie the answer.  Returns ``(y_star,
    objective)``, the plan and bits that pricing every plan gives: ties go
    to the plan that comes first in ``plans_under_budget`` order.
    """
    from .worstcase import PLAN_CHUNK, _jensen_bounds, _mixture_bounds, worst_case_values

    bits = np.arange(instance.n_facilities - 1, -1, -1)

    def plans(codes):                  # the rows plans_under_budget makes
        return (codes[:, None] >> bits) & 1

    codes, jensen = [], []
    for chunk in plans_under_budget(instance.n_facilities, budget, PLAN_CHUNK):
        kept, bound = _jensen_bounds(instance, model, chunk)
        codes.append(chunk[kept] @ (1 << bits))
        jensen.append(bound)
    codes, jensen = np.concatenate(codes), np.concatenate(jensen)
    best_code, best_v = None, math.inf

    def price(codes):
        nonlocal best_code, best_v
        ys = plans(codes)
        for code, y, wc in zip(codes, ys, worst_case_values(instance, model, ys)):
            total = float(instance.open_cost @ y) + wc
            if total < best_v or (total == best_v < math.inf and code < best_code):
                best_code, best_v = code, total

    def limit():
        return best_v + BOUND_SLACK * max(1.0, abs(best_v))

    first = np.argsort(jensen, kind="stable")[:PRICE_BATCH]
    price(codes[first])
    rest = np.setdiff1d(np.flatnonzero(jensen <= limit()), first)   # in code order
    mixture = np.concatenate([np.empty(0)] + [
        _mixture_bounds(instance, model, plans(codes[rest[s:s + PLAN_CHUNK]]))
        for s in range(0, len(rest), PLAN_CHUNK)])
    order = np.argsort(mixture, kind="stable")
    for s in range(0, len(order), PRICE_BATCH):
        batch = order[s:s + PRICE_BATCH]
        batch = batch[mixture[batch] <= limit()]
        if not len(batch):
            break
        price(codes[rest[batch]])
    if best_code is None:
        raise RuntimeError("no plan has a nonempty ambiguity set")
    return plans(np.array([best_code]))[0], best_v


def exact_solve(instance, model, budget: int | None = None):
    """Build the robust MILP at derived dual bounds and solve it once.

    The bounds of :func:`~ddrloc.milp.derive_dual_bounds` hold at every dual
    vertex and the chord cuts admit exactly the nonempty ambiguity sets, so
    one branch-and-bound run is exact.  The value oracle prices its plan as a
    check: an empty set raises AmbiguityInfeasibleError, which happens only
    if the cut rows and the screen's ``RAY_TOL`` disagree on a set, and a
    MILP value over 1e-6 relative away from the oracle's raises RuntimeError.
    Returns ``(MipSolution, y, bounds)``; ``y`` is None unless it ended optimal.
    """
    from .worstcase import worst_case_expectation

    bounds = derive_dual_bounds(instance, model)
    m = build_dddr(instance, model, bounds=bounds, budget=budget)
    sol = branch_and_bound(m)
    if sol.status != "optimal":
        return sol, None, bounds
    y = np.array([round(sol.x[nm]) for nm in m.meta["y_vars"]], dtype=int)
    value = float(instance.open_cost @ y) + worst_case_expectation(instance, model, y)[0]
    if abs(sol.objective - value) > 1e-6 * max(1.0, abs(value)):
        raise RuntimeError(f"MILP value {sol.objective!r} disagrees with the value "
                           f"oracle's {value!r} at plan {y.tolist()}")
    return sol, y, bounds
