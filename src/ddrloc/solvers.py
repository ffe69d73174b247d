"""Numerical kernels: primal simplex, branch-and-bound, enumeration oracle.

The tableau simplex is self-contained, deterministic, and reports dual
values; it is the workhorse for the small moment and transportation LPs and
the reference LP path in tests.  Branch-and-bound solves the MILPs with
scipy's HiGHS backend for the LP relaxations.  :func:`solve_robust` picks
between enumeration and the exact MILP for a robust plan, and
:func:`parse_lp_text` reads back an exported model.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .milp import (LinearExpr, MilpModel, DualBounds, binding_dual_bounds,
                   build_dddr)

__all__ = [
    "LpSolution",
    "MipSolution",
    "simplex_solve",
    "branch_and_bound",
    "enumerate_oracle",
    "exact_solve",
    "solve_robust",
    "parse_lp_text",
]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8


@dataclass
class LpSolution:
    status: str                       # optimal | infeasible | unbounded
    x: np.ndarray | None              # aligned with model.variables
    duals: np.ndarray | None          # aligned with model.constraints
    objective: float
    pivots: list = field(default_factory=list)   # (phase, entering, leaving) history
    _names: tuple = ()

    def value(self, name: str) -> float:
        return float(self.x[self._names.index(name)])

    def assignment(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self._names, self.x)}


@dataclass
class MipSolution:
    status: str                       # optimal | infeasible | node_limit
    x: dict[str, float] | None
    objective: float
    bound: float
    node_count: int


# ---------------------------------------------------------------------------
# Standard-form conversion
# ---------------------------------------------------------------------------

class _StandardForm:
    """min c.u  s.t.  A u (sense) b,  u >= 0, built from a MilpModel.

    Variables with finite lower bounds are shifted; free variables are split;
    finite upper bounds become extra rows appended after the model rows.
    """

    def __init__(self, m: MilpModel):
        if m.binary_names():
            raise ValueError("simplex_solve handles continuous models only; "
                             "relax binaries first")
        self.model = m
        cols = []           # (var_idx, sign) per standard-form column
        col_of = {}         # var_idx -> (pos_col, neg_col or None)
        shift = np.zeros(m.n_variables)
        for vi, v in enumerate(m.variables):
            if v.lower == -math.inf:
                col_of[vi] = (len(cols), len(cols) + 1)
                cols.append((vi, 1.0))
                cols.append((vi, -1.0))
            else:
                shift[vi] = v.lower
                col_of[vi] = (len(cols), None)
                cols.append((vi, 1.0))
        n = len(cols)
        rows, senses, rhs = [], [], []
        for c in m.constraints:
            r = np.zeros(n)
            b = c.rhs
            for name, a in c.coeffs.items():
                vi = m.var_index(name)
                pos, neg = col_of[vi]
                r[pos] += a
                if neg is not None:
                    r[neg] -= a
                b -= a * shift[vi]
            rows.append(r)
            senses.append(c.sense)
            rhs.append(b)
        self.n_model_rows = len(rows)
        for vi, v in enumerate(m.variables):
            if v.upper != math.inf:
                r = np.zeros(n)
                pos, neg = col_of[vi]
                r[pos] = 1.0
                if neg is not None:
                    r[neg] = -1.0
                rows.append(r)
                senses.append("<=")
                rhs.append(v.upper - shift[vi])
        self.A = np.array(rows) if rows else np.zeros((0, n))
        self.b = np.array(rhs)
        self.senses = senses
        self.c = np.zeros(n)
        for name, a in m.objective.coeffs.items():
            vi = m.var_index(name)
            pos, neg = col_of[vi]
            self.c[pos] += a
            if neg is not None:
                self.c[neg] -= a
        self.const = m.objective.constant + sum(
            m.objective.coeffs.get(v.name, 0.0) * shift[vi]
            for vi, v in enumerate(m.variables))
        self.cols = cols
        self.shift = shift

    def recover_x(self, u: np.ndarray) -> np.ndarray:
        x = self.shift.copy()
        for (vi, sign), val in zip(self.cols, u):
            x[vi] += sign * val
        return x


def simplex_solve(m: MilpModel, max_iter: int | None = None) -> LpSolution:
    """Two-phase primal simplex with Bland anti-cycling and dual recovery.

    Deterministic: Dantzig pricing with lowest-index tie-breaks, switching
    permanently to Bland's rule after a degenerate stall.
    """
    sf = _StandardForm(m)
    A0, b0, senses = sf.A, sf.b.copy(), list(sf.senses)
    n_rows, n_struct = A0.shape

    # Normalize to b >= 0, then append slack/surplus and artificial columns.
    flip = np.ones(n_rows)
    A = A0.copy()
    for r in range(n_rows):
        if b0[r] < 0:
            flip[r] = -1.0
            A[r] *= -1.0
            b0[r] *= -1.0
            senses[r] = {"<=": ">=", ">=": "<=", "=": "="}[senses[r]]

    slack_col, art_col = {}, {}
    extra = []
    for r, s in enumerate(senses):
        if s == "<=":
            e = np.zeros(n_rows)
            e[r] = 1.0
            slack_col[r] = n_struct + len(extra)
            extra.append(e)
        elif s == ">=":
            e = np.zeros(n_rows)
            e[r] = -1.0
            slack_col[r] = n_struct + len(extra)
            extra.append(e)
    for r, s in enumerate(senses):
        if s != "<=":
            e = np.zeros(n_rows)
            e[r] = 1.0
            art_col[r] = n_struct + len(extra)
            extra.append(e)
    T = np.hstack([A] + [np.array(extra).T]) if extra else A.copy()
    n_total = T.shape[1]
    basis = np.empty(n_rows, dtype=int)
    for r, s in enumerate(senses):
        basis[r] = slack_col[r] if s == "<=" else art_col[r]
    artificial = np.zeros(n_total, dtype=bool)
    for col in art_col.values():
        artificial[col] = True

    b = b0.copy()
    pivots: list = []
    if max_iter is None:
        max_iter = 50 * (n_rows + n_total) + 1000

    def run(c_vec, blocked):
        """Pivot to optimality of c_vec over the current (T, b, basis)."""
        nonlocal T, b
        zrow = c_vec[basis] @ T - c_vec
        stall, bland = 0, False
        last_obj = c_vec[basis] @ b
        for _ in range(max_iter):
            cand = np.where(~blocked & (zrow > PIVOT_TOL))[0]
            if cand.size == 0:
                return "optimal", zrow
            if bland:
                j = int(cand[0])
            else:
                j = int(cand[np.argmax(zrow[cand])])
            col = T[:, j]
            pos = np.where(col > PIVOT_TOL)[0]
            if pos.size == 0:
                return "unbounded", zrow
            ratios = b[pos] / col[pos]
            best = ratios.min()
            tied = pos[ratios <= best + 1e-12]
            r = int(tied[np.argmin(basis[tied])])
            piv = T[r, j]
            T[r] /= piv
            b[r] /= piv
            fac = T[:, j].copy()
            fac[r] = 0.0
            T -= np.outer(fac, T[r])
            b -= fac * b[r]
            zrow = zrow - zrow[j] * T[r]
            pivots.append((int(basis[r]), j))
            basis[r] = j
            obj = c_vec[basis] @ b
            if obj < last_obj - 1e-12:
                stall = 0
                last_obj = obj
            else:
                stall += 1
                if stall > n_rows + 10:
                    bland = True
        raise RuntimeError("simplex iteration limit exceeded")

    blocked = np.zeros(n_total, dtype=bool)
    if art_col:
        c1 = artificial.astype(float)
        status, _ = run(c1, blocked)
        if status != "optimal" or c1[basis] @ b > FEAS_TOL:
            return LpSolution("infeasible", None, None, math.inf, pivots,
                              tuple(v.name for v in m.variables))
        # Drive leftover artificials out of the basis where possible.
        for r in range(n_rows):
            if artificial[basis[r]]:
                row = T[r]
                nz = np.where(~artificial & (np.abs(row) > PIVOT_TOL))[0]
                if nz.size:
                    j = int(nz[0])
                    piv = T[r, j]
                    T[r] /= piv
                    b[r] /= piv
                    fac = T[:, j].copy()
                    fac[r] = 0.0
                    T -= np.outer(fac, T[r])
                    b -= fac * b[r]
                    pivots.append((int(basis[r]), j))
                    basis[r] = j
        blocked = artificial.copy()

    c2 = np.zeros(n_total)
    c2[:n_struct] = sf.c
    status, _ = run(c2, blocked)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, -math.inf, pivots,
                          tuple(v.name for v in m.variables))

    u = np.zeros(n_total)
    u[basis] = b
    x = sf.recover_x(u[:n_struct])
    obj = float(sf.c @ u[:n_struct] + sf.const)

    # Duals from the optimal basis: solve B^T ypi = c_B on the pre-pivot data,
    # then undo the row sign flips.  Bound rows are dropped from the report.
    full0 = np.hstack([A] + [np.array(extra).T]) if extra else A.copy()
    B = full0[:, basis]
    try:
        ypi = np.linalg.solve(B.T, c2[basis])
    except np.linalg.LinAlgError:
        ypi, *_ = np.linalg.lstsq(B.T, c2[basis], rcond=None)
    duals = (ypi * flip)[: sf.n_model_rows]
    return LpSolution("optimal", x, duals, obj, pivots,
                      tuple(v.name for v in m.variables))


# ---------------------------------------------------------------------------
# scipy LP bridge (HiGHS)
# ---------------------------------------------------------------------------

def _scipy_arrays(m: MilpModel):
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
    return c, A_ub, np.array(b_ub), A_eq, np.array(b_eq)


def branch_and_bound(m: MilpModel, abs_gap: float = 1e-6, int_tol: float = 1e-6,
                     node_limit: int = 200_000,
                     incumbent: tuple[dict[str, float], float] | None = None) -> MipSolution:
    """Best-bound branch-and-bound on the binary variables, HiGHS relaxations.

    Branches on the most fractional binary (ties to the lowest index);
    deterministic node ordering.  An optional warm incumbent ``(assignment,
    objective)`` primes pruning.  A search stopped by ``node_limit`` with
    open nodes left reports ``"node_limit"``, the incumbent (None when there
    is none yet) and the lowest bound among the open nodes.
    """
    bin_idx = [m.var_index(nm) for nm in m.binary_names()]
    names = [v.name for v in m.variables]
    c, A_ub, b_ub, A_eq, b_eq = _scipy_arrays(m)
    base_bounds = [(v.lower if v.lower != -math.inf else -np.inf,
                    v.upper if v.upper != math.inf else np.inf) for v in m.variables]

    def relax(fixings: dict[int, float]):
        bounds = list(base_bounds)
        for i, val in fixings.items():
            bounds[i] = (val, val)
        res = linprog(c, A_ub=A_ub, b_ub=b_ub if len(b_ub) else None,
                      A_eq=A_eq, b_eq=b_eq if len(b_eq) else None,
                      bounds=bounds, method="highs")
        if res.status == 2:
            return "infeasible", None, math.inf
        if res.status == 3:
            return "unbounded", None, -math.inf
        if not res.success:
            raise RuntimeError(f"LP backend failure: {res.message}")
        return "optimal", res.x, float(res.fun + m.objective.constant)

    inc_x, inc_obj = None, math.inf
    if incumbent is not None:
        inc_x, inc_obj = dict(incumbent[0]), float(incumbent[1])
    nodes = 0
    tick = itertools.count()
    heap = [(-math.inf, next(tick), {})]
    while heap and heap[0][0] < inc_obj - abs_gap and nodes < node_limit:
        _, _, fixings = heapq.heappop(heap)
        nodes += 1
        status, x, obj = relax(fixings)
        if status != "optimal" or obj >= inc_obj - abs_gap:
            continue
        fracs = np.array([abs(x[i] - round(x[i])) for i in bin_idx])
        if np.all(fracs <= int_tol):
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
    if heap and heap[0][0] < inc_obj - abs_gap:
        return MipSolution("node_limit", inc_x, inc_obj, bound, nodes)
    if inc_x is None:
        return MipSolution("infeasible", None, math.inf, math.inf, nodes)
    return MipSolution("optimal", inc_x, inc_obj, bound, nodes)


# ---------------------------------------------------------------------------
# Enumeration oracle and exact solve
# ---------------------------------------------------------------------------

def enumerate_oracle(instance, model, budget: int | None = None,
                     return_all: bool = False):
    """Exhaustive scan of all feasible plans against the worst-case objective.

    Returns ``(y_star, objective)``; ties break lexicographically.  Plans
    whose ambiguity set is empty are skipped.  With ``return_all`` the full
    table of (plan tuple, objective) pairs is returned as a third element.
    """
    from .worstcase import worst_case_values

    n = instance.n_facilities
    if n > 20:
        raise ValueError("enumeration limited to 20 facilities")
    ys = [y for y in itertools.product((0, 1), repeat=n)
          if budget is None or sum(y) <= budget]
    vals = worst_case_values(instance, model, ys)
    best_y, best_v = None, math.inf
    table = []
    for y, wc in zip(ys, vals):
        if not math.isfinite(wc):
            continue
        total = float(instance.open_cost @ np.array(y)) + wc
        table.append((y, total))
        if total < best_v:
            best_y, best_v = y, total
    if best_y is None:
        raise RuntimeError("no plan has a nonempty ambiguity set")
    if return_all:
        return np.array(best_y), best_v, table
    return np.array(best_y), best_v


def exact_solve(instance, model, bounds: DualBounds | None = None,
                budget: int | None = None, with_cuts: bool = True,
                max_doublings: int = 20):
    """Build and solve the robust MILP, enlarging dual bounds while binding.

    Returns ``(MipSolution, y, bounds_used)``.  The dual upper bounds truncate
    the inner dual LP; whenever the optimum touches one, the model is rebuilt
    with doubled bounds so the reported objective is truncation-free.

    Caveat: the binding check only inspects the returned plan.  A bound that
    is far too small can inflate the value of a *different* plan past the
    incumbent without leaving a trace at the incumbent itself, so start from
    bounds of a plausible magnitude (the default 100 suits unit costs up to a
    few hundred; scale with penalty times support range otherwise).
    """
    n_j = instance.n_customers
    if bounds is None:
        bounds = DualBounds.uniform(n_j)
    for _ in range(max_doublings + 1):
        m = build_dddr(instance, model, bounds=bounds, budget=budget,
                       with_cuts=with_cuts)
        sol = branch_and_bound(m)
        if sol.status != "optimal":
            return sol, None, bounds
        if not binding_dual_bounds(m, sol.x):
            y = np.array([round(sol.x[nm]) for nm in m.meta["y_vars"]], dtype=int)
            return sol, y, bounds
        bounds = bounds.scaled(2.0)
    raise RuntimeError("dual bounds still binding after repeated doubling")


def solve_robust(instance, model, budget: int | None = None, solver: str = "auto",
                 with_cuts: bool = True):
    """Robust plan by enumeration or by the exact MILP.

    ``solver`` is ``enumerate``, ``milp``, or ``auto`` (enumeration up to 12
    facilities, the MILP beyond).  Returns ``(y, objective, info)``, where
    ``info`` names the solver and, for the MILP, its node count and bound.
    Raises RuntimeError when the MILP does not end optimal.
    """
    if solver == "enumerate" or (solver == "auto" and instance.n_facilities <= 12):
        y, obj = enumerate_oracle(instance, model, budget=budget)
        return np.asarray(y, dtype=int), obj, {"solver": "enumerate"}
    sol, y, _ = exact_solve(instance, model, budget=budget, with_cuts=with_cuts)
    if sol.status != "optimal":
        raise RuntimeError(f"robust MILP ended {sol.status}")
    return y, sol.objective, {"solver": "milp", "nodes": sol.node_count,
                              "bound": sol.bound}


# ---------------------------------------------------------------------------
# LP text import
# ---------------------------------------------------------------------------

def parse_lp_text(text: str) -> MilpModel:
    """Minimal reader for the LP text emitted by :func:`export_lp_text`."""
    import re as _re

    m = MilpModel("imported")
    const = 0.0
    section = None
    pending_rows = []
    term_re = _re.compile(r"([+-])\s*([0-9.eE+-]+)\s+([A-Za-z0-9_]+)")
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
            mt = _re.search(r"(<=|>=|=)\s*([0-9.eE+-]+)\s*$", body)
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
