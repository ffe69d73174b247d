"""Model LPs, branch-and-bound, and the bound-ordered search over plans.

HiGHS (via scipy) solves every model LP: :func:`simplex_solve` with dual
values, :func:`branch_and_bound` for the MILPs' relaxations.
:func:`_bound_ordered` is the one search that finds a plan by closed-form
lower bounds, pricing only the plans whose bound can still win; the robust
solve :func:`enumerate_oracle` and SP training (``benchmarks.train_sp``)
both run it.  :func:`exact_solve`, the robust solve's cross-check, solves
the paper's robust MILP once at derived dual bounds and checks its plan
with the value oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from . import worstcase
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

# Branch-and-bound prunes nodes within ABS_GAP of the best plan found; a
# binary within INT_TOL of 0 or 1 counts as integral.
ABS_GAP = 1e-6
INT_TOL = 1e-6


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
# Bound-ordered search, enumeration oracle and exact solve
# ---------------------------------------------------------------------------

# _bound_ordered prices PRICE_BATCH plans at a time and skips those whose
# lower bound exceeds its limit, BOUND_SLACK relative (at least absolute)
# above the best objective: bounds came out up to 7.3e-12 above robust
# objectives of order 1e4, and 6.6e-14 relative above SP objectives.
PRICE_BATCH = 16
BOUND_SLACK = 1e-9


def _bound_ordered(bound, price, priced, batches):
    """Price plans in stable order of their lower bounds while one can still win.

    ``bound[p]`` bounds plan p's objective from below, ``price(sel)`` gives
    the objectives of the plans at positions ``sel`` and ``priced`` holds
    those priced before.  At most ``batches`` batches of :data:`PRICE_BATCH`
    are priced, while a bound is at most ``top + BOUND_SLACK * max(1,
    |m|)``: m is the least finite objective priced (with none, the limit is
    inf) and ``top`` the end of the chain of priced objectives rising from m
    in steps of at most 1e-12.  Returns ``(sel, values, limit)``: the
    positions priced, in pricing order, their objectives and the last limit.

    Why a search run to its end leaves no plan that changes the answer.  A
    bound exceeds its objective by rounding alone, far less than the slack
    less 1e-12, so the least-objective plan is priced, m is the least
    objective of all, and every unpriced plan has an objective above ``top +
    1e-12``.  That settles "least objective, ties to the first plan".  For
    the scan in which a later plan must beat the best so far by more than
    1e-12: by the chain's definition no priced plan has an objective in
    (top, top + 1e-12] either.  The first plan q in scan order with an
    objective of at most ``top`` is priced, and every plan before it is
    above ``top + 1e-12``, so q displaces the best so far (or starts it) in
    a scan of the priced plans and in a scan of all plans.  From q on the
    best is at most ``top``, and an unpriced plan would need an objective
    below ``top - 1e-12`` to displace it, so both scans end on the same
    plan, with the same bits.  A limit counted from m alone would not do: a
    priced plan less than 1e-12 above q may keep q from displacing it in one
    scan and not in the other, and the two scans can then leapfrog down a
    chain of near ties to different plans.
    """
    order = np.argsort(bound, kind="stable")
    values = np.empty(0)

    def limit():
        v = np.sort(np.concatenate([priced, values]))
        v = v[v < math.inf]
        if not len(v):
            return math.inf
        step = np.flatnonzero(np.diff(v) > 1e-12)
        top = v[step[0]] if len(step) else v[-1]
        return top + BOUND_SLACK * max(1.0, abs(v[0]))

    while batches and len(values) < len(order):
        batch = order[len(values):len(values) + PRICE_BATCH]
        batch = batch[bound[batch] <= limit()]       # a prefix, in bound order
        if not len(batch):
            break
        values = np.append(values, price(batch))
        batches -= 1
    return order[:len(values)], values, limit()


def _bounded_plans(n, budget, bounds):
    """Plans under the budget that ``bounds`` keeps, and their lower bounds.

    ``bounds(ys)`` maps each ``worstcase.PLAN_CHUNK`` plans to a keep mask and
    the kept plans' bounds.  Kept plans are held as ``np.packbits`` rows in
    walk order, ceil(n / 8) bytes each; ``plans(sel)`` of the returned
    ``(plans, bound)`` unpacks those at ``sel`` as ``plans_under_budget`` rows.
    """
    packed, bound = [], []
    for ys in plans_under_budget(n, budget, worstcase.PLAN_CHUNK):
        kept, b = bounds(ys)
        packed.append(np.packbits(ys[kept], axis=1))
        bound.append(b)
    packed = np.concatenate(packed)
    return (lambda sel: np.unpackbits(packed[sel], axis=1, count=n).astype(int),
            np.concatenate(bound))


def enumerate_oracle(instance, model, budget: int | None = None):
    """The plan of least worst-case objective, by a bound-ordered search.

    :func:`_bound_ordered` prices the first batch of plans in the order of
    their Jensen bound (``worstcase._jensen_bounds``) for an incumbent.  The
    unpriced plans whose Jensen bound is within its limit get the sharper
    mixture bound (``worstcase._mixture_bounds``), and a second search
    prices them in that order.  A plan the first limit leaves out has a
    bound above the first batch's least objective plus the slack, so it
    cannot beat or tie the answer.  Returns ``(y_star, objective)``, the
    plan and bits that pricing every plan gives: ties go to the plan first
    in ``plans_under_budget`` order.
    """
    plans, jensen = _bounded_plans(instance.n_facilities, budget,
                                   lambda ys: worstcase._jensen_bounds(instance, model, ys))

    def price(sel):
        ys = plans(sel)
        return (np.array([float(instance.open_cost @ y) for y in ys])
                + worstcase.worst_case_values(instance, model, ys))

    first, first_v, limit = _bound_ordered(jensen, price, [], 1)
    rest = np.setdiff1d(np.flatnonzero(jensen <= limit), first)   # in walk order
    chunk = worstcase.PLAN_CHUNK
    mixture = np.concatenate([np.empty(0)] + [
        worstcase._mixture_bounds(instance, model, plans(rest[s:s + chunk]))
        for s in range(0, len(rest), chunk)])
    sel, values, _ = _bound_ordered(mixture, lambda s: price(rest[s]), first_v, math.inf)
    where, values = np.concatenate([first, rest[sel]]), np.concatenate([first_v, values])
    if not np.any(values < math.inf):
        raise RuntimeError("no plan has a nonempty ambiguity set")
    best = np.lexsort((where, values))[0]
    return plans(where[best:best + 1])[0], values[best]


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
    bounds = derive_dual_bounds(instance, model)
    m = build_dddr(instance, model, bounds=bounds, budget=budget)
    sol = branch_and_bound(m)
    if sol.status != "optimal":
        return sol, None, bounds
    y = np.array([round(sol.x[nm]) for nm in m.meta["y_vars"]], dtype=int)
    value = float(instance.open_cost @ y) + worstcase.worst_case_expectation(instance, model, y)[0]
    if abs(sol.objective - value) > 1e-6 * max(1.0, abs(value)):
        raise RuntimeError(f"MILP value {sol.objective!r} disagrees with the value "
                           f"oracle's {value!r} at plan {y.tolist()}")
    return sol, y, bounds
