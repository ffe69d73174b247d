"""Solver-agnostic MILP containers and model builders.

Three models are built here:

* the exact reformulation of the robust facility location problem, where the
  inner worst-case expectation is dualized and the products of dual variables
  with the binary plan are linearized through McCormick envelopes (exact for
  binary factors);
* its decision-independent specialization (all dependency weights zero);
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

from .instance import (Instance, DemandModel, big_lambda_matrix,
                       chord_slacks, decision_independent)
from .transport import theta_affine

__all__ = [
    "LinearExpr",
    "Variable",
    "Constraint",
    "MilpModel",
    "DualBounds",
    "mccormick_bilinear",
    "mccormick_trilinear",
    "build_dddr",
    "build_dr",
    "build_sp_saa",
    "export_lp_text",
    "model_stats",
    "binding_dual_bounds",
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

    def __init__(self, name: str = "model"):
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

    def copy(self, name: str | None = None) -> "MilpModel":
        m = MilpModel(name or self.name)
        m.variables = list(self.variables)
        m.constraints = list(self.constraints)
        m.objective = LinearExpr(self.objective.coeffs, self.objective.constant)
        m.meta = dict(self.meta)
        m._index = dict(self._index)
        return m

    def with_bounds(self, overrides: dict[str, tuple[float, float]],
                    relax_binaries: bool = False) -> "MilpModel":
        """Copy with changed variable bounds (and optionally binaries relaxed)."""
        m = self.copy()
        out = []
        for v in m.variables:
            lo, hi = overrides.get(v.name, (v.lower, v.upper))
            kind = "continuous" if relax_binaries else v.kind
            out.append(Variable(v.name, kind, float(lo), float(hi)))
        m.variables = out
        return m.seal()


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
            if np.any(arr <= 0):
                raise ValueError(f"{name} must be strictly positive")
            object.__setattr__(self, name, arr)

    @staticmethod
    def uniform(n_customers: int, value: float = 100.0) -> "DualBounds":
        v = np.full(n_customers, float(value))
        return DualBounds(v.copy(), v.copy(), v.copy(), v.copy())

    def scaled(self, factor: float) -> "DualBounds":
        return DualBounds(self.ub_delta1 * factor, self.ub_delta2 * factor,
                          self.ub_gamma1 * factor, self.ub_gamma2 * factor)


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

def _window_forms(model: DemandModel, pairs: list[tuple[int, int]]):
    """The moment windows as affine forms in the plan, one row per customer.

    Returns ``(m_lo, m_hi, s_lo, s_hi)``, each of shape (|J|, 1 + |I| + P):
    the constant, one coefficient per facility ``y_i`` and one per plan
    product ``Y_lm`` in ``pairs`` (``y_l**2 = y_l`` folds the squares into
    the facility slopes of :func:`~ddrloc.instance.big_lambda_matrix`).
    """
    mu, sg = model.bar_mu, model.bar_sigma
    lm = model.lambda_mu
    pl, pm = np.array(pairs, dtype=int).reshape(-1, 2).T
    mean = np.hstack([mu[:, None], mu[:, None] * lm, np.zeros((len(mu), len(pairs)))])
    second = np.hstack([(sg ** 2 + mu ** 2)[:, None], big_lambda_matrix(model),
                        (2.0 * mu ** 2)[:, None] * (lm[:, pl] * lm[:, pm])])
    eps = np.zeros_like(mean)
    eps[:, 0] = model.eps_mu
    return (mean - eps, mean + eps,
            second * model.eps_sigma_lo[:, None], second * model.eps_sigma_hi[:, None])


# Dual objective: alpha + delta1 m_hi - delta2 m_lo + gamma1 s_hi - gamma2 s_lo,
# as (dual, sign, window index in _window_forms, envelope prefix).
_DUAL_TERMS = (("delta1", 1.0, 1, "D_1"), ("delta2", -1.0, 0, "D_2"),
               ("gamma1", 1.0, 3, "G_1"), ("gamma2", -1.0, 2, "G_2"))


def build_dddr(instance: Instance, model: DemandModel,
               bounds: DualBounds | None = None,
               budget: int | None = None,
               with_cuts: bool = True) -> MilpModel:
    """Exact MILP for the decision-dependent robust location problem.

    One dual block (alpha, delta, gamma) per customer; products of duals with
    the plan are carried by Delta/Gamma (bilinear) and Psi (trilinear)
    envelope variables, products of plan entries by Y variables.  ``budget``
    caps the number of open facilities; ``with_cuts`` adds the
    feasibility-certifying chord inequalities.
    """
    from .instance import validate

    violations = validate(instance, model)
    if violations:
        raise ValueError("invalid problem data: " + "; ".join(violations))
    n_i, n_j = instance.n_facilities, instance.n_customers
    if bounds is None:
        bounds = DualBounds.uniform(n_j)
    for arr in (bounds.ub_delta1, bounds.ub_delta2, bounds.ub_gamma1, bounds.ub_gamma2):
        if len(arr) != n_j:
            raise ValueError("dual bounds dimension does not match the customer count")

    d = model.support
    m = MilpModel("dddr")
    fids = instance.facility_ids
    cids = instance.customer_ids
    pairs = [(l, mm) for l in range(n_i) for mm in range(l)]
    forms = _window_forms(model, pairs)
    windows = [f.tolist() for f in forms]

    y = [m.add_variable(f"y_{fid}", kind="binary") for fid in fids]
    obj = LinearExpr()
    for i in range(n_i):
        obj.add(y[i], float(instance.open_cost[i]))

    dual_ub: dict[str, float] = {}
    for jj, cid in enumerate(cids):
        ubs = {"delta1": float(bounds.ub_delta1[jj]), "delta2": float(bounds.ub_delta2[jj]),
               "gamma1": float(bounds.ub_gamma1[jj]), "gamma2": float(bounds.ub_gamma2[jj])}

        alpha = m.add_variable(f"alpha_{cid}", lower=-INF)
        dv = {h: m.add_variable(f"{h}_{cid}", upper=ubs[h]) for h in ubs}
        dual_ub.update({dv[h]: ubs[h] for h in ubs})

        terms = [(h, sign, windows[w][jj], prefix) for h, sign, w, prefix in _DUAL_TERMS]
        obj.add(alpha, 1.0)
        for h, sign, form, _ in terms:
            obj.add(dv[h], sign * form[0])

        # Envelope variables for dual * plan products.
        for i, fid in enumerate(fids):
            for h, sign, form, prefix in terms:
                w = m.add_variable(f"{prefix}_{cid}_{fid}", upper=ubs[h])
                _add_all(m, mccormick_bilinear(w, dv[h], y[i], 0.0, ubs[h]))
                obj.add(w, sign * form[1 + i])
        for p, (l, mm) in enumerate(pairs):
            for h, sign, form, _ in terms[2:]:
                w = m.add_variable(f"P_{h[-1]}_{cid}_{fids[l]}_{fids[mm]}",
                                   upper=ubs[h])
                _add_all(m, mccormick_trilinear(w, dv[h], y[l], y[mm], 0.0, ubs[h]))
                obj.add(w, sign * form[1 + n_i + p])

        # Support constraints of the dualized inner problem: one row per
        # support point and candidate marginal source.
        for k in range(len(d)):
            dk, dk2 = float(d[k]), float(d[k]) ** 2
            for i_star, const, coeff in theta_affine(instance, model, cid, k):
                row = LinearExpr({alpha: 1.0,
                                  dv["delta1"]: dk, dv["delta2"]: -dk,
                                  dv["gamma1"]: dk2, dv["gamma2"]: -dk2})
                for i in range(n_i):
                    row.add(y[i], -float(coeff[i]))
                m.add_constraint(f"dual_{cid}_{k}_{i_star}", row, ">=", const)

    # Plan products, shared by the valid inequalities.
    Y = []
    for l, mm in pairs:
        w = m.add_variable(f"Y_{fids[l]}_{fids[mm]}", upper=1.0)
        Y.append(w)
        _add_all(m, mccormick_bilinear(w, y[l], y[mm], 0.0, 1.0))

    if with_cuts:
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
    m.meta["dual_var_ub"] = dual_ub
    m.meta["with_cuts"] = bool(with_cuts)
    return m.seal()


def build_dr(instance: Instance, model: DemandModel,
             bounds: DualBounds | None = None,
             budget: int | None = None,
             with_cuts: bool = True) -> MilpModel:
    """Decision-independent specialization: all dependency weights zeroed."""
    m = build_dddr(instance, decision_independent(model), bounds=bounds,
                   budget=budget, with_cuts=with_cuts)
    m.name = "dr"
    return m


def build_sp_saa(instance: Instance, scenarios, budget: int | None = None) -> MilpModel:
    """Sample-average stochastic program with the plan as a decision.

    ``scenarios`` needs ``demands`` of shape (n, |J|) and optionally
    ``probabilities``; probabilities default to uniform.
    """
    demands = np.atleast_2d(np.asarray(getattr(scenarios, "demands", scenarios), float))
    probs = getattr(scenarios, "probabilities", None)
    n_w = demands.shape[0]
    probs = np.full(n_w, 1.0 / n_w) if probs is None else np.asarray(probs, float)
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


def binding_dual_bounds(m: MilpModel, assignment: dict[str, float],
                        tol: float = 1e-6) -> list[str]:
    """Dual variables sitting at their upper bound in a solution.

    A nonempty result means the bound truncation may be active; re-solve with
    larger bounds before trusting the objective.
    """
    out = []
    for name, ub in m.meta.get("dual_var_ub", {}).items():
        if assignment.get(name, 0.0) >= ub - tol:
            out.append(name)
    return out


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

    The objective constant is carried in a comment line; the re-import helper
    in the solvers module restores it.
    """
    order = {v.name: i for i, v in enumerate(m.variables)}
    lines = [f"\\ Problem: {_clean(m.name)}"]
    if m.objective.constant:
        lines.append(f"\\ Objective constant: {_num(m.objective.constant)}")
    lines.append("Minimize")
    lines.append(f" obj: {_terms(m.objective.coeffs, order)}")
    lines.append("Subject To")
    sense_txt = {"<=": "<=", "=": "=", ">=": ">="}
    for c in m.constraints:
        lines.append(f" {_clean(c.name)}: {_terms(c.coeffs, order)} "
                     f"{sense_txt[c.sense]} {_num(c.rhs)}")
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
