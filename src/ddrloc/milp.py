"""Solver-agnostic MILP containers and model builders.

Two models are built here:

* the exact reformulation of the robust facility location problem, where the
  inner worst-case expectation is dualized, the products of dual variables
  with the binary plan are linearized through McCormick envelopes (exact for
  binary factors) and chord cuts admit exactly the nonempty ambiguity sets;
  built on ``decision_independent(model)`` it is the DR model;
* the sample-average stochastic program over a finite scenario set.

Models are kept as plain variable/constraint/objective lists so any LP/MIP
backend can consume them; :func:`export_lp_text` writes the standard LP text
format.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .instance import (Instance, DemandModel, _check_budget, _check_valid,
                       big_lambda_matrix, chord_slacks)
from .transport import _pieces

__all__ = [
    "LinearExpr",
    "Variable",
    "Constraint",
    "MilpModel",
    "DualBounds",
    "derive_dual_bounds",
    "mccormick_bilinear",
    "mccormick_trilinear",
    "build_dddr",
    "build_sp_saa",
    "export_lp_text",
    "model_stats",
]

INF = math.inf


class LinearExpr:
    """Sparse linear form over variable names, plus a constant."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs=None, constant: float = 0.0):
        self.coeffs: dict[str, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    def add(self, var: str, coeff: float) -> "LinearExpr":
        if coeff != 0.0:
            self.coeffs[var] = self.coeffs.get(var, 0.0) + coeff
        return self


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str            # "continuous" | "binary"
    lower: float
    upper: float


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict[str, float]
    sense: str           # "<=" | "=" | ">="
    rhs: float


class MilpModel:
    """Mutable while building; :meth:`seal` freezes it for solving."""

    def __init__(self, name: str):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective = LinearExpr()
        self.meta: dict = {}
        self._index: dict[str, int] = {}
        self._sealed = False

    # -- construction -----------------------------------------------------

    def add_variable(self, name: str, kind: str = "continuous",
                     lower: float = 0.0, upper: float = INF) -> str:
        self._check_open()
        if name in self._index:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind == "binary":
            if lower != 0.0 or upper not in (1.0, INF):
                raise ValueError(f"binary variable {name!r} takes bounds 0 and 1")
            lower, upper = 0.0, 1.0
        elif kind != "continuous":
            raise ValueError(f"unknown variable kind {kind!r}")
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower bound above upper bound")
        self._index[name] = len(self.variables)
        self.variables.append(Variable(name, kind, float(lower), float(upper)))
        return name

    def add_constraint(self, name: str, expr: LinearExpr | dict, sense: str, rhs: float):
        self._check_open()
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        if isinstance(expr, LinearExpr):
            coeffs, shift = expr.coeffs, expr.constant
        else:
            coeffs, shift = expr, 0.0
        for v in coeffs:
            if v not in self._index:
                raise KeyError(f"constraint {name!r} references unknown variable {v!r}")
        self.constraints.append(Constraint(name, dict(coeffs), sense, float(rhs) - shift))

    def set_objective(self, expr: LinearExpr):
        self._check_open()
        for v in expr.coeffs:
            if v not in self._index:
                raise KeyError(f"objective references unknown variable {v!r}")
        self.objective = expr

    def seal(self) -> "MilpModel":
        self._sealed = True
        return self

    def _check_open(self):
        if self._sealed:
            raise RuntimeError("model is sealed")

    # -- queries -----------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def var_index(self, name: str) -> int:
        return self._index[name]

    def binary_names(self) -> list[str]:
        return [v.name for v in self.variables if v.kind == "binary"]


@dataclass(frozen=True)
class DualBounds:
    """Upper bounds on the dual multipliers of the inner moment problem."""

    ub_delta1: np.ndarray
    ub_delta2: np.ndarray
    ub_gamma1: np.ndarray
    ub_gamma2: np.ndarray

    def __post_init__(self):
        for name in ("ub_delta1", "ub_delta2", "ub_gamma1", "ub_gamma2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr) & (arr >= 0)):
                raise ValueError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, arr)


def derive_dual_bounds(instance: Instance, model: DemandModel) -> DualBounds:
    """Bounds on the inner dual multipliers that hold at every dual vertex.

    A vertex of customer j's inner dual is a quadratic alpha + beta d +
    gamma d^2 (beta = delta1 - delta2, gamma = gamma1 - gamma2, one of each
    pair zero) above the convex cost theta_j, touching it at three support
    points a < b < c, or at two with beta or gamma zero, or at one.  As
    theta_j's slopes lie in [s_min, s_max], the candidates' unit costs less
    revenue, gamma is a second divided difference in [0, Gamma], Gamma =
    (s_max - s_min) / min_k (d_{k+2} - d_k), or theta_j[a, b] / (a + b) when
    beta = 0, and beta = theta_j[a, b] - gamma (a + b).  On a nonnegative
    support that bounds delta1 by max(s_max, 0) (attained), delta2 by
    max(0, Gamma (d_{K-2} + d_{K-1}) - s_min), gamma1 by max(Gamma,
    max(s_max, 0) / (d_0 + d_1)) and gamma2 by max(-s_min, 0) / (d_0 + d_1),
    whatever the moment windows, except that gamma2's is 0 where the row
    E[d^2] >= s_lo never binds.  The down-chord f(m) = (d_0 + d_{K-1}) m -
    d_0 d_{K-1} is the largest E[d^2] at mean m.  Spreading an optimum of
    the moment LP without that row toward d_0 and d_{K-1} keeps its mean
    m >= m_lo, never lowers E theta_j (convex order) and raises E[d^2]
    continuously to f(m) >= f(m_lo).  So if s_lo <= f(m_lo) at every plan
    with a nonempty set, some optimal dual vertex has gamma2 = 0.  Two upper
    bounds on s_lo - f(m_lo) test it, and the smaller must be <= 0: the
    down-chord cut's 2 eps_mu (d_0 + d_{K-1}) on a nonempty set, 0 for a
    pinned mean; and the constant plus the positive coefficients of its
    affine form in (y, Y).
    """
    d = model.support
    slopes = _pieces(instance)[0] - instance.revenue[:, None]
    s_max, s_min = slopes.max(axis=1), slopes.min(axis=1)
    big_gamma = ((s_max - s_min) / np.min(d[2:] - d[:-2]) if len(d) > 2
                 else np.zeros_like(s_max))
    rise = np.maximum(s_max, 0.0)
    low = d[0] + d[1]
    _, (m_lo, _, s_lo, _) = _window_forms(model)
    gap = s_lo - (d[0] + d[-1]) * m_lo
    gap[:, 0] += d[0] * d[-1]                 # s_lo - f(m_lo), a form in (1, y, Y)
    binds = np.minimum(2.0 * model.eps_mu * (d[0] + d[-1]),
                       gap[:, 0] + np.maximum(gap[:, 1:], 0.0).sum(axis=1)) > 0
    return DualBounds(rise,
                      np.maximum(big_gamma * (d[-2] + d[-1]) - s_min, 0.0),
                      np.maximum(big_gamma, rise / low),
                      np.where(binds, np.maximum(-s_min, 0.0) / low, 0.0))


# ---------------------------------------------------------------------------
# McCormick envelopes
# ---------------------------------------------------------------------------

def mccormick_bilinear(w_name: str, eta_var: str, z_var: str,
                       eta_lo: float, eta_hi: float) -> list[Constraint]:
    """Inequalities pinning ``w = eta * z`` for ``z`` binary, ``eta`` bounded.

    Exact: z = 0 collapses w to 0, z = 1 collapses w to eta.
    """
    if eta_lo > eta_hi:
        raise ValueError("eta_lo must not exceed eta_hi")
    w, e, z = w_name, eta_var, z_var
    return [
        Constraint(f"{w}_mc1", {e: 1.0, z: eta_hi, w: -1.0}, "<=", eta_hi),
        Constraint(f"{w}_mc2", {w: 1.0, e: -1.0, z: -eta_lo}, "<=", -eta_lo),
        Constraint(f"{w}_mc3", {z: eta_lo, w: -1.0}, "<=", 0.0),
        Constraint(f"{w}_mc4", {w: 1.0, z: -eta_hi}, "<=", 0.0),
    ]


def mccormick_trilinear(w_name: str, eta_var: str, z1_var: str, z2_var: str,
                        eta_lo: float, eta_hi: float) -> list[Constraint]:
    """Inequalities pinning ``w = eta * z1 * z2`` for binary ``z1, z2``.

    Exact (convex hull) when ``0 <= eta_lo <= eta_hi``.
    """
    if eta_lo > eta_hi:
        raise ValueError("eta_lo must not exceed eta_hi")
    if eta_lo < 0:
        raise ValueError("trilinear envelope requires a nonnegative eta range")
    w, e, z1, z2 = w_name, eta_var, z1_var, z2_var
    return [
        Constraint(f"{w}_mc1", {w: 1.0, z1: -eta_hi}, "<=", 0.0),
        Constraint(f"{w}_mc2", {w: 1.0, z2: -eta_hi}, "<=", 0.0),
        Constraint(f"{w}_mc3", {w: 1.0, e: -1.0, z1: -eta_lo}, "<=", -eta_lo),
        Constraint(f"{w}_mc4", {w: 1.0, e: -1.0, z2: -eta_lo}, "<=", -eta_lo),
        Constraint(f"{w}_mc5", {z1: eta_lo, z2: eta_lo, w: -1.0}, "<=", eta_lo),
        Constraint(f"{w}_mc6", {e: 1.0, z1: eta_hi, z2: eta_hi, w: -1.0}, "<=", 2.0 * eta_hi),
    ]


def _add_all(m: MilpModel, rows: list[Constraint]):
    for c in rows:
        m.add_constraint(c.name, c.coeffs, c.sense, c.rhs)


# ---------------------------------------------------------------------------
# Robust model builder
# ---------------------------------------------------------------------------

def _window_forms(model: DemandModel):
    """The moment windows as affine forms in the plan, one row per customer.

    Returns ``(pairs, (m_lo, m_hi, s_lo, s_hi))``: the facility pairs (l, m),
    m < l, of the plan products ``Y_lm``, and forms of shape (|J|, 1 + |I| +
    P), the constant, one coefficient per facility ``y_i`` and one per pair
    (``y_l**2 = y_l`` folds the squares into the facility slopes of
    :func:`~ddrloc.instance.big_lambda_matrix`).
    """
    mu, sg = model.bar_mu, model.bar_sigma
    lm = model.lambda_mu
    pairs = [(l, mm) for l in range(model.n_facilities) for mm in range(l)]
    pl, pm = np.array(pairs, dtype=int).reshape(-1, 2).T
    mean = np.hstack([mu[:, None], mu[:, None] * lm, np.zeros((len(mu), len(pairs)))])
    second = np.hstack([(sg ** 2 + mu ** 2)[:, None], big_lambda_matrix(model),
                        (2.0 * mu ** 2)[:, None] * (lm[:, pl] * lm[:, pm])])
    eps = np.zeros_like(mean)
    eps[:, 0] = model.eps_mu
    return pairs, (mean - eps, mean + eps, second * model.eps_sigma_lo[:, None],
                   second * model.eps_sigma_hi[:, None])


# Dual objective: alpha + delta1 m_hi - delta2 m_lo + gamma1 s_hi - gamma2 s_lo,
# as (dual, sign, window index in _window_forms, envelope prefix, moment); the
# support row at point d carries sign * d**moment.
_DUAL_TERMS = (("delta1", 1.0, 1, "D_1", 1), ("delta2", -1.0, 0, "D_2", 1),
               ("gamma1", 1.0, 3, "G_1", 2), ("gamma2", -1.0, 2, "G_2", 2))


def build_dddr(instance: Instance, model: DemandModel,
               bounds: DualBounds | None = None,
               budget: int | None = None) -> MilpModel:
    """Exact MILP for the decision-dependent robust location problem.

    One dual block (alpha, delta, gamma) per customer; products of duals with
    the plan are carried by Delta/Gamma (bilinear) and Psi (trilinear)
    envelope variables, products of plan entries by Y variables, which only
    the chord cuts read; the cuts admit exactly the plans with a nonempty
    ambiguity set.  ``bounds`` caps the duals, by default at
    :func:`derive_dual_bounds`, which keep every such plan exact (smaller
    ones may truncate it).
    A dual whose bound is 0 has no column: no envelopes, no term in the
    support rows or the objective.  ``budget`` caps the number of open
    facilities; a negative one raises ValueError.
    """
    _check_valid(instance, model)
    _check_budget(budget)
    n_i, n_j = instance.n_facilities, instance.n_customers
    if bounds is None:
        bounds = derive_dual_bounds(instance, model)
    for arr in (bounds.ub_delta1, bounds.ub_delta2, bounds.ub_gamma1, bounds.ub_gamma2):
        if len(arr) != n_j:
            raise ValueError("dual bounds dimension does not match the customer count")

    d = model.support
    m = MilpModel("dddr")
    fids = instance.facility_ids
    cids = instance.customer_ids
    pairs, forms = _window_forms(model)
    windows = [f.tolist() for f in forms]
    cand, gaps = _pieces(instance)
    slopes = (cand - instance.revenue[:, None]).tolist()
    neg_coeffs = (-(instance.capacity * gaps)).tolist()

    y = [m.add_variable(f"y_{fid}", kind="binary") for fid in fids]
    obj = LinearExpr()
    for i in range(n_i):
        obj.add(y[i], float(instance.open_cost[i]))

    for jj, cid in enumerate(cids):
        ubs = {h: float(getattr(bounds, "ub_" + h)[jj]) for h, *_ in _DUAL_TERMS}

        alpha = m.add_variable(f"alpha_{cid}", lower=-INF)
        terms = [(h, sign, windows[w][jj], prefix, moment)
                 for h, sign, w, prefix, moment in _DUAL_TERMS if ubs[h] > 0.0]
        dv = {h: m.add_variable(f"{h}_{cid}", upper=ubs[h]) for h, *_ in terms}
        obj.add(alpha, 1.0)
        for h, sign, form, _, _ in terms:
            obj.add(dv[h], sign * form[0])

        # Envelope variables for dual * plan products.
        for i, fid in enumerate(fids):
            for h, sign, form, prefix, _ in terms:
                w = m.add_variable(f"{prefix}_{cid}_{fid}", upper=ubs[h])
                _add_all(m, mccormick_bilinear(w, dv[h], y[i], 0.0, ubs[h]))
                obj.add(w, sign * form[1 + i])
        for p, (l, mm) in enumerate(pairs):
            for h, sign, form, _, moment in terms:
                if moment == 2:
                    w = m.add_variable(f"P_{h[-1]}_{cid}_{fids[l]}_{fids[mm]}", upper=ubs[h])
                    _add_all(m, mccormick_trilinear(w, dv[h], y[l], y[mm], 0.0, ubs[h]))
                    obj.add(w, sign * form[1 + n_i + p])

        # Support rows of the dualized inner problem: one per support point and
        # candidate marginal source i* of transport._pieces (0 the penalty,
        # else a facility id), alpha + dual terms - sum_i C_i gaps[i*, i] y_i
        # >= (c_{i*j} - r_j) d_k.
        for k, dk in enumerate(d.tolist()):
            for i_star, slope, neg_coeff in zip((0,) + fids, slopes[jj], neg_coeffs[jj]):
                row = LinearExpr({alpha: 1.0, **{dv[h]: sign * dk ** moment
                                                 for h, sign, _, _, moment in terms}})
                for v, a in zip(y, neg_coeff):
                    row.add(v, a)
                m.add_constraint(f"dual_{cid}_{k}_{i_star}", row, ">=", slope * dk)

    # Plan products, then one chord cut per customer and hull edge.
    Y = [m.add_variable(f"Y_{fids[l]}_{fids[mm]}", upper=1.0) for l, mm in pairs]
    for w, (l, mm) in zip(Y, pairs):
        _add_all(m, mccormick_bilinear(w, y[l], y[mm], 0.0, 1.0))
    one = np.zeros(forms[0].shape[1])
    one[0] = 1.0
    cuts = np.moveaxis(chord_slacks(d, forms, one), -1, 1).tolist()   # (J, chords, cols)
    for jj, cid in enumerate(cids):
        for r, form in enumerate(cuts[jj], start=1):
            row = LinearExpr(constant=form[0])
            for v, c in zip(y + Y, form[1:]):
                row.add(v, c)
            m.add_constraint(f"cut_ray{r}_{cid}", row, ">=", 0.0)

    if budget is not None:
        m.add_constraint("budget", {v: 1.0 for v in y}, "<=", float(budget))

    m.set_objective(obj)
    m.meta["y_vars"] = list(y)
    return m.seal()


def build_sp_saa(instance: Instance, demands, budget: int | None = None) -> MilpModel:
    """Sample-average stochastic program with the plan as a decision.

    ``demands`` is an (n, |J|) matrix of equally likely scenarios.  A
    negative ``budget`` raises ValueError.
    """
    _check_budget(budget)
    demands = np.atleast_2d(np.asarray(demands, float))
    n_w = demands.shape[0]
    probs = np.full(n_w, 1.0 / n_w)
    n_i, n_j = instance.n_facilities, instance.n_customers
    if demands.shape[1] != n_j:
        raise ValueError("scenario demand width does not match the customer count")

    m = MilpModel("sp_saa")
    y = [m.add_variable(f"y_{fid}", kind="binary") for fid in instance.facility_ids]
    obj = LinearExpr()
    for i in range(n_i):
        obj.add(y[i], float(instance.open_cost[i]))
    obj.constant = -float(probs @ (demands @ instance.revenue))
    for w in range(n_w):
        for jj, cid in enumerate(instance.customer_ids):
            s = m.add_variable(f"s_{w}_{cid}")
            obj.add(s, float(probs[w] * instance.penalty[jj]))
            bal = LinearExpr({s: 1.0})
            for i, fid in enumerate(instance.facility_ids):
                x = m.add_variable(f"x_{w}_{fid}_{cid}")
                obj.add(x, float(probs[w] * instance.cost[i, jj]))
                bal.add(x, 1.0)
                m.add_constraint(f"cap_{w}_{fid}_{cid}",
                                 {x: 1.0, y[i]: -float(instance.capacity[i])}, "<=", 0.0)
            m.add_constraint(f"bal_{w}_{cid}", bal, "=", float(demands[w, jj]))
    if budget is not None:
        m.add_constraint("budget", {v: 1.0 for v in y}, "<=", float(budget))
    m.set_objective(obj)
    m.meta["y_vars"] = list(y)
    return m.seal()


# ---------------------------------------------------------------------------
# LP text export
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _clean(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _num(x: float) -> str:
    return f"{x + 0.0:.17g}"       # the +0.0 folds negative zero away


def _terms(coeffs: dict[str, float], order: dict[str, int]) -> str:
    parts = []
    for v, c in sorted(coeffs.items(), key=lambda kv: order[kv[0]]):
        if c == 0.0:
            continue
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_num(abs(c))} {_clean(v)}")
    if not parts:
        return "0"
    return " ".join(parts).lstrip("+ ")


def export_lp_text(m: MilpModel) -> str:
    """Render the model in LP text format, deterministically ordered.

    The LP format has no objective constant, so it is carried in a comment
    line.
    """
    order = {v.name: i for i, v in enumerate(m.variables)}
    lines = [f"\\ Problem: {_clean(m.name)}"]
    if m.objective.constant:
        lines.append(f"\\ Objective constant: {_num(m.objective.constant)}")
    lines.append("Minimize")
    lines.append(f" obj: {_terms(m.objective.coeffs, order)}")
    lines.append("Subject To")
    for c in m.constraints:
        lines.append(f" {_clean(c.name)}: {_terms(c.coeffs, order)} "
                     f"{c.sense} {_num(c.rhs)}")
    lines.append("Bounds")
    for v in m.variables:
        if v.kind == "binary":
            continue
        if v.lower == -INF and v.upper == INF:
            lines.append(f" {_clean(v.name)} free")
        elif v.lower == 0.0 and v.upper == INF:
            continue
        elif v.upper == INF:
            lines.append(f" {_num(v.lower)} <= {_clean(v.name)}")
        elif v.lower == -INF:
            lines.append(f" -inf <= {_clean(v.name)} <= {_num(v.upper)}")
        else:
            lines.append(f" {_num(v.lower)} <= {_clean(v.name)} <= {_num(v.upper)}")
    binaries = m.binary_names()
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(_clean(b) for b in binaries))
    lines.append("End")
    return "\n".join(lines) + "\n"


def model_stats(m: MilpModel) -> str:
    """Small structured report of model dimensions."""
    n_bin = len(m.binary_names())
    senses = {"<=": 0, "=": 0, ">=": 0}
    for c in m.constraints:
        senses[c.sense] += 1
    return "\n".join([
        f"model: {m.name}",
        f"variables: {m.n_variables} (binary: {n_bin})",
        f"constraints: {m.n_constraints} "
        f"(le: {senses['<=']}, eq: {senses['=']}, ge: {senses['>=']})",
        f"objective terms: {len(m.objective.coeffs)}",
    ]) + "\n"
