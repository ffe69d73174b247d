"""Second-stage transportation/penalty cost for a fixed plan and demand.

For one customer the recourse LP (ship from open facilities, penalize the
rest, collect revenue on realized demand) has a closed-form optimum: the
maximum over candidate "marginal sources" ``i*`` of an affine function of
the demand, where ``i* = 0`` stands for the penalty column with cost
``p_j``.  The closed form is checked against a plain LP solve in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import DemandModel, Instance, _as_y

__all__ = [
    "PENALTY",
    "Allocation",
    "h_j_closed_form",
    "h_closed_form",
    "second_stage_costs",
    "unmet_by_customer",
    "recover_allocation",
    "transport_lp_oracle",
    "theta_affine",
]

# Candidate index of the penalty "source" in the closed-form maximum.
PENALTY = 0


@dataclass(frozen=True)
class Allocation:
    """Shipments x[i, j], unmet demand s[j] and the resulting cost."""

    x: np.ndarray
    s: np.ndarray
    value: float


def _candidate_gaps(instance: Instance, jj: int):
    """Candidate marginal sources of the closed form at customer column ``jj``.

    Returns ``(cand, gaps)``: ``cand`` holds the candidates' unit costs over
    i* = 0..|I|, penalty ``p_j`` first, then ``c_ij``; ``gaps[i*, i] =
    min(c_ij - cand[i*], 0)`` is what a unit of facility ``i``'s capacity
    saves against candidate ``i*``.
    """
    c = instance.cost[:, jj]
    cand = np.concatenate(([instance.penalty[jj]], c))
    return cand, np.minimum(c[None, :] - cand[:, None], 0.0)


def _theta(d, cand, consts, revenue):
    """Closed-form cost at demands ``d``: the largest piece ``d * cand + consts``
    less ``revenue * d``.

    ``d`` holds demands on its last axis, ``cand`` and ``consts`` the
    candidates' slopes and intercepts on theirs; their leading axes, like
    ``revenue``, broadcast against ``d``.  The pieces are laid out with the
    candidates before the demands, so the maximum is an elementwise one over
    contiguous rows rather than a reduction along a short strided axis; a
    maximum is exact, so the layout does not change the bits.
    """
    vals = cand[..., :, None] * d[..., None, :] + consts[..., :, None]
    return vals.max(axis=-2) - revenue * d


def _candidate_terms(instance: Instance, y, jj: int):
    """Slopes and intercepts of the closed form's affine pieces under plan ``y``.

    A plan matrix ``y`` of shape (P, |I|) gives intercepts of shape (P, |I|+1),
    each row with the bits of its plan alone.
    """
    cand, gaps = _candidate_gaps(instance, jj)
    return cand, (instance.capacity * _as_y(y)[..., None, :] * gaps).sum(axis=-1)


def h_j_closed_form(instance: Instance, y, j: int, d: float):
    """Cost at customer id ``j`` for demand ``d``; also the maximizing candidate.

    Returns ``(value, i_star)`` with ``i_star`` a facility id or ``PENALTY``.
    Ties in the maximum break toward the smaller candidate index, penalty first.
    """
    if d < 0:
        raise ValueError("demand must be nonnegative")
    jj = instance.customer_index(j)
    cand, consts = _candidate_terms(instance, y, jj)
    vals = cand * d + consts
    k = int(np.argmax(vals))                    # argmax returns the first maximizer
    i_star = PENALTY if k == 0 else instance.facility_ids[k - 1]
    return float(vals[k] - instance.revenue[jj] * d), i_star


def h_closed_form(instance: Instance, y, d) -> float:
    """Total second-stage cost: sum of the per-customer closed forms."""
    d = np.asarray(d, dtype=float)
    total = 0.0
    for jj, cid in enumerate(instance.customer_ids):
        total += h_j_closed_form(instance, y, cid, float(d[jj]))[0]
    return total


def second_stage_costs(instance: Instance, y, demands: np.ndarray) -> np.ndarray:
    """Vectorized closed form over a scenario matrix of shape (n, |J|).

    ``y`` is one plan of shape (|I|,), giving costs of shape (n,), or a plan
    matrix of shape (P, |I|), giving (P, n) with every row bit-identical to
    that plan's own call.  Each customer makes a (P, |I|+1, n) temporary, so
    callers with many plans pass them in chunks.
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    out = np.zeros(np.shape(y)[:-1] + demands.shape[:1])
    for jj in range(instance.n_customers):
        cand, consts = _candidate_terms(instance, y, jj)
        out += _theta(demands[:, jj], cand, consts, instance.revenue[jj])
    return out


def unmet_by_customer(instance: Instance, y, demands: np.ndarray) -> np.ndarray:
    """Unmet demand per scenario and customer under the optimal allocation.

    Capacity is per facility-customer pair, so customer j is short exactly
    when its demand exceeds the total open capacity.
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    open_cap = float(instance.capacity @ _as_y(y))
    return np.maximum(demands - open_cap, 0.0)


def recover_allocation(instance: Instance, y, d) -> Allocation:
    """Optimal primal allocation: per customer, fill facilities by ascending cost.

    Every transport cost is below the penalty, so each customer ships as much
    as open capacity allows (cheapest facilities first, ties to smaller id)
    and only the remainder is penalized.
    """
    d = np.asarray(d, dtype=float)
    yv = _as_y(y)
    n_i, n_j = instance.n_facilities, instance.n_customers
    x = np.zeros((n_i, n_j))
    s = np.zeros(n_j)
    ids = np.asarray(instance.facility_ids)
    for jj in range(n_j):
        remaining = d[jj]
        for i in np.lexsort((ids, instance.cost[:, jj])):
            if remaining <= 0:
                break
            ship = min(remaining, instance.capacity[i] * yv[i])
            x[i, jj] = ship
            remaining -= ship
        s[jj] = max(remaining, 0.0)
    value = float((instance.cost * x).sum() + instance.penalty @ s - instance.revenue @ d)
    return Allocation(x=x, s=s, value=value)


def transport_lp_oracle(instance: Instance, y, d) -> float:
    """Second-stage cost via a HiGHS LP solve; test-side ground truth."""
    from .milp import LinearExpr, MilpModel
    from .solvers import simplex_solve

    d = np.asarray(d, dtype=float)
    yv = _as_y(y)
    m = MilpModel("transport")
    n_i, n_j = instance.n_facilities, instance.n_customers
    xv = [[m.add_variable(f"x_{i}_{j}", lower=0.0) for j in range(n_j)] for i in range(n_i)]
    sv = [m.add_variable(f"s_{j}", lower=0.0) for j in range(n_j)]
    obj = LinearExpr()
    for j in range(n_j):
        obj.add(sv[j], instance.penalty[j])
        balance = LinearExpr()
        balance.add(sv[j], 1.0)
        for i in range(n_i):
            obj.add(xv[i][j], instance.cost[i, j])
            balance.add(xv[i][j], 1.0)
            m.add_constraint(f"cap_{i}_{j}", LinearExpr({xv[i][j]: 1.0}), "<=",
                             instance.capacity[i] * yv[i])
        m.add_constraint(f"bal_{j}", balance, "=", d[j])
    obj.constant = -float(instance.revenue @ d)
    m.set_objective(obj)
    sol = simplex_solve(m.seal())
    if sol.status != "optimal":
        raise RuntimeError(f"transport LP unexpectedly {sol.status}")
    return sol.objective


def theta_affine(instance: Instance, model: DemandModel, j: int, k: int):
    """Affine family whose pointwise maximum over candidates is theta_jk(y).

    One entry per candidate ``i*`` in penalty-then-facility order:
    ``(i_star, const, coeff)`` with value ``const + coeff @ y`` equal to
    ``(c_{i*j} - r_j) d_k + sum_{i: c_ij < c_{i*j}} C_i (c_ij - c_{i*j}) y_i``.
    """
    if not 0 <= k < model.support_size:
        raise IndexError(f"support index {k} out of range")
    d_k = float(model.support[k])
    return [(i_star, float(slope * d_k), coeff)
            for i_star, slope, coeff in _theta_pieces(instance, instance.customer_index(j))]


def _theta_pieces(instance: Instance, jj: int):
    """The support-point-free part of :func:`theta_affine` at column ``jj``.

    One ``(i_star, slope, coeff)`` per candidate: the piece's constant at
    support point ``d_k`` is ``slope * d_k``.
    """
    cand, gaps = _candidate_gaps(instance, jj)
    return [(PENALTY if t == 0 else instance.facility_ids[t - 1],
             c_star - instance.revenue[jj], instance.capacity * gaps[t])
            for t, c_star in enumerate(cand)]
