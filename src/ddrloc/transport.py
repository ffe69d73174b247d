"""Second-stage transportation/penalty cost for a fixed plan and demand.

For one customer the recourse LP (ship from open facilities, penalize the
rest, collect revenue on realized demand) has a closed-form optimum theta_j:
a maximum of affine pieces in the demand, one per candidate marginal
source.  :func:`_pieces` builds the candidate table of every customer once,
:func:`_intercepts` prices its pieces under plans and :func:`_theta` takes
the maximum; the scenario costs, the value oracle, the MILP's support rows
and, through :func:`_plan_theta`, the lower bounds of the robust and SP
solves all read that table.  The closed form is checked
against a plain LP solve in the tests.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance, _as_y

__all__ = [
    "second_stage_costs",
    "unmet_by_customer",
    "transport_lp_oracle",
]


def _pieces(instance: Instance):
    """The candidate table of every customer: ``(cand, gaps)``, C-contiguous.

    ``cand`` (|J|, |I|+1) holds the candidates' unit costs over i* = 0..|I|,
    penalty ``p_j`` first, then ``c_ij``; ``gaps`` (|J|, |I|+1, |I|) holds
    ``gaps[j, i*, i] = min(c_ij - cand[j, i*], 0)``, what a unit of facility
    ``i``'s capacity saves against candidate ``i*``.  Under plan ``y`` the
    piece of candidate i* at demand d is ``(c_{i*j} - r_j) d + sum_i C_i
    gaps[j, i*, i] y_i``, that is ``(c_{i*j} - r_j) d + sum_{i: c_ij <
    c_{i*j}} C_i (c_ij - c_{i*j}) y_i``, and theta_j(d; y) is the largest.

    The costs are copied C-contiguous first: gaps built from the transposed
    view inherit its strides, and :func:`_intercepts`' sum over facilities
    then rounds differently from ten facilities on.
    """
    cost = np.ascontiguousarray(instance.cost.T)
    cand = np.concatenate((instance.penalty[:, None], cost), axis=1)
    return cand, np.minimum(cost[:, None, :] - cand[:, :, None], 0.0)


def _intercepts(instance: Instance, gaps, ys):
    """Intercepts of the pieces of ``gaps`` under plans ``ys``.

    ``gaps`` is :func:`_pieces`' table or a slice of it with facilities on
    its last axis; its leading axes broadcast against those of ``ys``, so a
    plan matrix (P, |I|) against one customer's (|I|+1, |I|) gives (P,
    |I|+1), every row with the bits of its plan alone.
    """
    return (instance.capacity * _as_y(ys)[..., None, :] * gaps).sum(axis=-1)


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


def _plan_theta(instance: Instance, ys):
    """theta_j under each plan of ``ys`` (P, |I|), as a function of one
    demand per (plan, customer), shape (P, |J|) or broadcast against it.

    A demand axis of a few points last would make every step of
    :func:`_theta` loop over a few elements, so each call takes one.  The
    intercepts come from one matrix product, not from :func:`_intercepts`:
    the lower bounds of the robust and SP solves need no bits that hold for
    a plan alone, and the elementwise form would make a (P, |J|, |I|+1,
    |I|) temporary.
    """
    cand, gaps = _pieces(instance)
    consts = ((ys * instance.capacity) @ gaps.reshape(-1, instance.n_facilities).T
              ).reshape((len(ys),) + cand.shape)
    revenue = instance.revenue[:, None]
    return lambda m: _theta(m[..., None], cand, consts, revenue)[..., 0]


def second_stage_costs(instance: Instance, y, demands: np.ndarray) -> np.ndarray:
    """Vectorized closed form over a scenario matrix of shape (n, |J|).

    ``y`` is one plan of shape (|I|,), giving costs of shape (n,), or a plan
    matrix of shape (P, |I|), giving (P, n) with every row bit-identical to
    that plan's own call.  Each customer makes a (P, |I|+1, n) temporary, so
    callers with many plans pass them in chunks.
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    cand, gaps = _pieces(instance)
    out = np.zeros(np.shape(y)[:-1] + demands.shape[:1])
    for jj in range(instance.n_customers):
        out += _theta(demands[:, jj], cand[jj], _intercepts(instance, gaps[jj], y),
                      instance.revenue[jj])
    return out


def unmet_by_customer(instance: Instance, y, demands: np.ndarray) -> np.ndarray:
    """Unmet demand per scenario and customer under the optimal allocation.

    Capacity is per facility-customer pair, so customer j is short exactly
    when its demand exceeds the total open capacity.
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    open_cap = float(instance.capacity @ _as_y(y))
    return np.maximum(demands - open_cap, 0.0)


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
