import numpy as np
import pytest

from ddrloc.instance import DemandModel, Instance, arithmetic_support


def toy_instance(cost, capacity, penalty, revenue, open_cost=None):
    """Instance with an explicit cost matrix and dummy coordinates."""
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    n_i, n_j = cost.shape
    return Instance(
        facility_ids=tuple(range(1, n_i + 1)),
        facility_coords=np.zeros((n_i, 2)),
        open_cost=np.zeros(n_i) if open_cost is None else np.asarray(open_cost, float),
        capacity=np.asarray(capacity, dtype=float),
        customer_ids=tuple(range(1, n_j + 1)),
        customer_coords=np.zeros((n_j, 2)),
        penalty=np.asarray(penalty, dtype=float),
        revenue=np.asarray(revenue, dtype=float),
        cost=cost,
    )


def toy_model(instance, bar_mu, bar_sigma, lambda_mu=None, lambda_sigma=None,
              support=(1.0, 100.0, 10), eps_mu=None, eps_lo=None, eps_hi=None):
    n_j = instance.n_customers
    n_i = instance.n_facilities
    z = np.zeros((n_j, n_i))
    return DemandModel(
        bar_mu=np.asarray(bar_mu, dtype=float),
        bar_sigma=np.asarray(bar_sigma, dtype=float),
        lambda_mu=z.copy() if lambda_mu is None else np.asarray(lambda_mu, float),
        lambda_sigma=z.copy() if lambda_sigma is None else np.asarray(lambda_sigma, float),
        support=arithmetic_support(*support),
        eps_mu=np.zeros(n_j) if eps_mu is None else np.asarray(eps_mu, float),
        eps_sigma_lo=np.ones(n_j) if eps_lo is None else np.asarray(eps_lo, float),
        eps_sigma_hi=np.ones(n_j) if eps_hi is None else np.asarray(eps_hi, float),
        customer_ids=instance.customer_ids,
    )


def random_problem(seed, n_facilities, n_customers, support_size=10, kappa=0.0,
                   **overrides):
    from ddrloc.experiments import ExperimentConfig, generate_instance
    cfg = ExperimentConfig(n_facilities=n_facilities, n_customers=n_customers,
                           seed=seed, support_size=support_size, kappa=kappa,
                           **overrides)
    return generate_instance(cfg)


def all_plans(n, budget=None):
    """Every plan over ``n`` facilities under the budget, as one matrix: the
    single chunk that 2^n integer codes make."""
    from ddrloc.instance import plans_under_budget
    return next(plans_under_budget(n, budget, 2 ** n))


@pytest.fixture
def small_problem():
    return random_problem(11, 3, 5, support_size=8)


def without_cuts(m):
    """Copy of a built robust MILP without its chord cuts: no ``cut_*`` rows,
    and no plan-product ``Y_*`` columns or envelope rows, which only the cuts
    read.  Without the cuts a plan whose ambiguity set is empty stays
    feasible, so the copy can reach one."""
    out = m.copy()
    out.variables = [v for v in m.variables if not v.name.startswith("Y_")]
    out._index = {v.name: i for i, v in enumerate(out.variables)}
    out.constraints = [c for c in m.constraints
                       if not c.name.startswith(("cut_", "Y_"))]
    return out.seal()


def primal_lp(support, theta, window):
    """Moment LP of one customer over the support probabilities, as a model.

    ``simplex_solve`` solves it with HiGHS, an engine apart from the value
    oracle, which builds the same rows, with the same ``float ** 2``
    coefficients, as one lockstep-simplex tableau per block
    (``worstcase._moment_lps``).
    """
    from ddrloc.milp import LinearExpr, MilpModel
    m_lo, m_hi, s_lo, s_hi = window
    d = [float(dk) for dk in support]
    m = MilpModel("moment_primal")
    pis = [m.add_variable(f"pi_{k}") for k in range(len(d))]
    m.add_constraint("mass", {p: 1.0 for p in pis}, "=", 1.0)
    m.add_constraint("mean_hi", dict(zip(pis, d)), "<=", m_hi)
    m.add_constraint("mean_lo", dict(zip(pis, d)), ">=", m_lo)
    m.add_constraint("sec_hi", {p: dk ** 2 for p, dk in zip(pis, d)}, "<=", s_hi)
    m.add_constraint("sec_lo", {p: dk ** 2 for p, dk in zip(pis, d)}, ">=", s_lo)
    m.set_objective(LinearExpr({p: -float(t) for p, t in zip(pis, theta)}))
    return m.seal()


def moment_lps(model, windows, theta=0.0):
    """The moment LP of each window box, as the value oracle builds it, solved
    straight through the lockstep simplex: ``(status, pi)``.

    ``windows`` is ``(m_lo, m_hi, s_lo, s_hi)``, arrays of one shape S;
    ``theta`` (S + (K,), or 0.0 to test feasibility alone) is the cost.
    """
    from ddrloc.solvers import _simplex_batch
    from ddrloc.worstcase import _MOMENT_SENSES
    d = model.support
    sq = [dk ** 2 for dk in d.tolist()]
    m_lo, m_hi, s_lo, s_hi = (np.asarray(w, dtype=float) for w in windows)
    rhs = np.stack([np.ones_like(m_lo), m_hi, m_lo, s_hi, s_lo], axis=-1).reshape(-1, 5)
    cost = np.broadcast_to(0.0 - np.asarray(theta, dtype=float),
                           m_lo.shape + (len(d),)).reshape(len(rhs), len(d))
    status, u, _ = _simplex_batch(np.array([np.ones(len(d)), d, d, sq, sq]), rhs,
                                  _MOMENT_SENSES, cost)
    return status.reshape(m_lo.shape), (0.0 + u).reshape(m_lo.shape + (len(d),))
