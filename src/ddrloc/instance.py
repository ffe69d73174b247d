"""Problem data for the facility location model with decision-dependent demand.

An :class:`Instance` holds the deterministic side of the problem (sites,
costs, capacities); a :class:`DemandModel` holds the stochastic side: the
empirical moments, how strongly each facility shifts them, the finite demand
support, and the moment-window radii that control robustness.

The mean and variance of demand at customer ``j`` are affine in the
open-facility indicator vector ``y``::

    mu_j(y)      = bar_mu_j    * (1 + sum_i lambda_mu[j, i]  * y_i)
    sigma2_j(y)  = bar_sigma_j**2 * (1 - sum_i lambda_sigma[j, i] * y_i)

with ``sum_i lambda_sigma[j, i] < 1`` so the variance stays positive.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Instance",
    "DemandModel",
    "arithmetic_support",
    "plans_under_budget",
    "plan_moments",
    "moment_windows",
    "big_lambda_matrix",
    "chords",
    "chord_slacks",
    "lambda_from_distance",
    "lambda_rho_means",
    "apply_robustness_level",
    "decision_independent",
    "validate",
    "write_atomic",
    "save_problem",
    "load_problem",
    "problem_to_dict",
    "sites_to_dict",
    "problem_from_dict",
]

# Absolute tolerance for invariant checks.
TOL = 1e-9


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Instance:
    """Facility candidates, customer sites and the cost structure between them.

    ``cost[i, j]`` is the unit transportation cost from facility ``i`` to
    customer ``j``.  Ids are arbitrary integers (1-based in the generators);
    arrays are positional and aligned with the id tuples.
    """

    facility_ids: tuple[int, ...]
    facility_coords: np.ndarray      # (|I|, 2)
    open_cost: np.ndarray            # f_i
    capacity: np.ndarray             # C_i
    customer_ids: tuple[int, ...]
    customer_coords: np.ndarray      # (|J|, 2)
    penalty: np.ndarray              # p_j
    revenue: np.ndarray              # r_j
    cost: np.ndarray                 # (|I|, |J|)

    def __post_init__(self):
        for name in ("facility_coords", "open_cost", "capacity",
                     "customer_coords", "penalty", "revenue", "cost"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "facility_ids", tuple(int(i) for i in self.facility_ids))
        object.__setattr__(self, "customer_ids", tuple(int(j) for j in self.customer_ids))
        if self.cost.shape != (self.n_facilities, self.n_customers):
            raise ValueError("cost matrix shape does not match site counts")

    @property
    def n_facilities(self) -> int:
        return len(self.facility_ids)

    @property
    def n_customers(self) -> int:
        return len(self.customer_ids)

    @staticmethod
    def from_sites(facility_coords, open_cost, capacity,
                   customer_coords, penalty, revenue) -> "Instance":
        """Euclidean transport costs between the sites, numbered from 1 in order."""
        fc = np.asarray(facility_coords, dtype=float)
        cc = np.asarray(customer_coords, dtype=float)
        diff = fc[:, None, :] - cc[None, :, :]
        cost = np.hypot(diff[..., 0], diff[..., 1])
        return Instance(tuple(range(1, len(fc) + 1)), fc, np.asarray(open_cost, float),
                        np.asarray(capacity, float), tuple(range(1, len(cc) + 1)), cc,
                        np.asarray(penalty, float), np.asarray(revenue, float), cost)


@dataclass(frozen=True)
class DemandModel:
    """Moment information of the random demand and its decision dependency.

    ``support`` is the common finite support of demand at every customer,
    nonnegative and strictly increasing with at least two points.  ``eps_mu`` is the absolute
    half-width of the mean window; ``eps_sigma_lo``/``eps_sigma_hi`` scale the
    second-moment window, with ``0 <= lo <= 1 <= hi``.
    """

    bar_mu: np.ndarray              # (|J|,)
    bar_sigma: np.ndarray           # (|J|,)
    lambda_mu: np.ndarray           # (|J|, |I|)
    lambda_sigma: np.ndarray        # (|J|, |I|)
    support: np.ndarray             # (K,), strictly increasing
    eps_mu: np.ndarray              # (|J|,)
    eps_sigma_lo: np.ndarray        # (|J|,)
    eps_sigma_hi: np.ndarray        # (|J|,)

    def __post_init__(self):
        for name in ("bar_mu", "bar_sigma", "lambda_mu", "lambda_sigma",
                     "support", "eps_mu", "eps_sigma_lo", "eps_sigma_hi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n_customers(self) -> int:
        return len(self.bar_mu)

    @property
    def n_facilities(self) -> int:
        return self.lambda_mu.shape[1]

    @property
    def support_size(self) -> int:
        return len(self.support)

    def replace(self, **changes) -> "DemandModel":
        return dataclasses.replace(self, **changes)


def _as_y(y) -> np.ndarray:
    return np.asarray(y, dtype=float)


def arithmetic_support(lo: float, hi: float, k: int) -> np.ndarray:
    """Evenly spaced support ``d_0 < ... < d_{K-1}`` from ``lo`` to ``hi``.

    Built as ``lo + n * step`` with the last point pinned to ``hi`` so that
    serialization via (min, max, step) reproduces it bit-exactly.
    """
    if k < 2:
        raise ValueError("support needs at least two points")
    step = (hi - lo) / (k - 1)
    d = lo + step * np.arange(k, dtype=float)
    d[-1] = hi
    return d


def _check_budget(budget: int | None):
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


def plans_under_budget(n: int, budget: int | None, chunk: int):
    """Every 0/1 plan over ``n`` facilities with at most ``budget`` open, in
    lexicographic order, as integer matrices of ``chunk`` plans (the last may
    hold fewer).  The integer codes are walked in order, skipping each run of
    codes that open too many whole.  The budget is checked at the call, not
    at the first ``next()``."""
    _check_budget(budget)
    limit = n if budget is None else budget
    bits = np.arange(n - 1, -1, -1)

    def codes():
        x = 0
        while x < 2 ** n:
            if x.bit_count() <= limit:
                yield x
                x += 1
            else:
                # the codes below x + (x & -x) keep every open bit of x
                x += x & -x

    def chunks():
        walk = codes()
        while block := list(itertools.islice(walk, chunk)):
            yield (np.array(block)[:, None] >> bits) & 1
    return chunks()


# ---------------------------------------------------------------------------
# Decision-dependent moments
# ---------------------------------------------------------------------------

def plan_moments(model: DemandModel, ys):
    """mu_j(y) and sigma_j^2(y) of every customer under each plan.

    ``ys`` is a plan matrix of shape (N, |I|) (a single plan counts as one
    row).  Returns ``(mu, var)``, each of shape (N, |J|).  Summing the terms
    one facility at a time gives a plan the same bits alone as in any batch;
    a matrix product rounds a one-row batch differently.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    lm = np.zeros((len(ys), model.n_customers))
    ls = np.zeros_like(lm)
    for i in range(model.n_facilities):
        lm += ys[:, i, None] * model.lambda_mu[:, i]
        ls += ys[:, i, None] * model.lambda_sigma[:, i]
    return model.bar_mu * (1.0 + lm), model.bar_sigma ** 2 * (1.0 - ls)


def moment_windows(model: DemandModel, ys):
    """Mean and second-moment windows of every customer under each plan.

    ``ys`` is a plan matrix of shape (N, |I|) (a single plan counts as one
    row).  Returns ``(m_lo, m_hi, s_lo, s_hi)``, each of shape (N, |J|):
    ``mu -/+ eps_mu`` and ``s * eps_sigma_lo/hi`` with ``s = sigma^2 + mu^2``
    from :func:`plan_moments`.
    """
    mu, var = plan_moments(model, ys)
    s = var + mu * mu
    return (mu - model.eps_mu, mu + model.eps_mu,
            s * model.eps_sigma_lo, s * model.eps_sigma_hi)


def big_lambda_matrix(model: DemandModel) -> np.ndarray:
    """Per-facility slopes of ``sigma_j^2(y) + mu_j(y)^2``, shape (|J|, |I|).

    The square of the affine mean, expanded over binary ``y``, gives each
    facility the slope ``-bar_sigma_j^2 * ls + bar_mu_j^2 * (2*lm + lm**2)``.
    """
    lm = model.lambda_mu
    ls = model.lambda_sigma
    return (-(model.bar_sigma ** 2)[:, None] * ls
            + (model.bar_mu ** 2)[:, None] * (2.0 * lm + lm ** 2))


# ---------------------------------------------------------------------------
# Chords of the moment set
# ---------------------------------------------------------------------------

def chords(support) -> list[tuple[float, float, float]]:
    """Every facet of the moment set, each ``(a, b, c)`` for ``a + b d + c d^2 >= 0``.

    The (E[d], E[d^2]) pairs on a nonnegative support d_0 < ... < d_{K-1}
    form conv{(d_k, d_k^2)} (Karlin & Studden, 1966).  In order: the
    up-chord of each adjacent pair (every lower hull edge), the down-chord
    through d_0 and d_{K-1}, and the range bounds of E[d] and E[d^2].  Edges
    and axes together are exact: a box of windows misses the hull exactly
    when one of these fails at all its corners.
    """
    d = [float(dk) for dk in support]
    lo, hi = d[0], d[-1]
    edges = [(p * q, -(p + q), 1.0) for p, q in zip(d, d[1:])]
    return edges + [(-lo * hi, lo + hi, -1.0), (-lo, 1.0, 0.0), (hi, -1.0, 0.0),
                    (-lo * lo, 0.0, 1.0), (hi * hi, 0.0, -1.0)]


def chord_slacks(support, windows, one) -> np.ndarray:
    """Each chord inequality at the most favourable corner of the windows.

    ``windows`` is ``(m_lo, m_hi, s_lo, s_hi)`` and ``one`` is 1.0; a
    negative slack proves the moment set empty.  The result stacks one slack
    per chord, in the order of :func:`chords`, on a new last axis.  The slack
    is affine in the windows, so passing their affine forms in the plan, with
    ``one`` the form of the constant 1, gives its form.
    """
    m_lo, m_hi, s_lo, s_hi = windows
    return np.stack([a * one + b * (m_hi if b > 0 else m_lo) + c * (s_hi if c > 0 else s_lo)
                     for a, b, c in chords(support)], axis=-1)


# ---------------------------------------------------------------------------
# Dependency-weight recipes
# ---------------------------------------------------------------------------

def lambda_from_distance(instance: Instance, decay_scale: float = 25.0,
                         target_row_sum: float = 0.5):
    """Distance-decay dependency weights ``exp(-c_ij / decay_scale)``.

    Each customer row is rescaled to sum to ``target_row_sum``; the same
    matrix is used for the mean and the variance weights.
    """
    if not 0.0 < target_row_sum < 1.0:
        raise ValueError("target_row_sum must lie in (0, 1) to keep variances positive")
    raw = np.exp(-instance.cost.T / decay_scale)      # (|J|, |I|)
    lam = raw * (target_row_sum / raw.sum(axis=1, keepdims=True))
    return lam.copy(), lam.copy()


def lambda_rho_means(instance: Instance, rho: int):
    """Uniform 1/rho weights on the rho nearest facilities of each customer.

    Ties in distance are broken toward the smaller facility id.  The variance
    rows are shrunk by a factor of 0.99 because a row sum of exactly 1 would
    drive the variance to zero with every neighborhood open.
    """
    n_i = instance.n_facilities
    if not 1 <= rho <= n_i:
        raise ValueError(f"rho must be between 1 and {n_i}")
    lam_mu = np.zeros((instance.n_customers, n_i))
    ids = np.asarray(instance.facility_ids)
    for jj in range(instance.n_customers):
        order = np.lexsort((ids, instance.cost[:, jj]))
        lam_mu[jj, order[:rho]] = 1.0 / rho
    return lam_mu, 0.99 * lam_mu


def apply_robustness_level(model: DemandModel, kappa: float) -> DemandModel:
    """Set the moment-window radii from a single robustness level in [0, 1]."""
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    n = model.n_customers
    return model.replace(
        eps_mu=kappa * model.bar_mu,
        eps_sigma_lo=np.full(n, 1.0 - kappa),
        eps_sigma_hi=np.full(n, 1.0 + kappa),
    )


def decision_independent(model: DemandModel) -> DemandModel:
    """The same demand model with every dependency weight zeroed (the DR model)."""
    zero = np.zeros_like(model.lambda_mu)
    return model.replace(lambda_mu=zero, lambda_sigma=zero)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(instance: Instance, model: DemandModel | None = None) -> list[str]:
    """Check every structural invariant; return one message per violation."""
    v = []
    inst = instance
    for i in np.flatnonzero(inst.capacity <= 0):
        v.append(f"facility {inst.facility_ids[i]}: capacity must be positive")
    for i in np.flatnonzero(inst.open_cost < 0):
        v.append(f"facility {inst.facility_ids[i]}: opening cost must be nonnegative")
    for j in np.flatnonzero(inst.revenue < 0):
        v.append(f"customer {inst.customer_ids[j]}: revenue must be nonnegative")
    if np.any(inst.cost < 0):
        v.append("transport costs must be nonnegative")
    for i, j in zip(*np.nonzero(inst.penalty[None, :] <= inst.cost)):
        v.append(f"pair ({inst.facility_ids[i]}, {inst.customer_ids[j]}): "
                 "penalty not strictly greater than transport cost")
    if model is None:
        return v

    n_j, n_i = inst.n_customers, inst.n_facilities
    shapes = {"bar_mu": (n_j,), "bar_sigma": (n_j,), "eps_mu": (n_j,),
              "eps_sigma_lo": (n_j,), "eps_sigma_hi": (n_j,),
              "lambda_mu": (n_j, n_i), "lambda_sigma": (n_j, n_i)}
    wrong = [f"{name} has shape {getattr(model, name).shape}, not {shape}"
             for name, shape in shapes.items() if getattr(model, name).shape != shape]
    if model.support.ndim != 1:
        wrong.append("support must be one-dimensional")
    if wrong:
        return v + [f"demand model: {w}" for w in wrong]
    if np.any(model.bar_mu < 0) or np.any(model.bar_sigma < 0):
        v.append("empirical moments must be nonnegative")
    rows = model.lambda_sigma.sum(axis=1)
    for j in np.flatnonzero(rows >= 1.0 - TOL):
        v.append(f"customer {inst.customer_ids[j]}: variance dependency row sums to "
                 f"{rows[j]:.6g}, must stay strictly below 1")
    for name, lam in (("lambda_mu", model.lambda_mu), ("lambda_sigma", model.lambda_sigma)):
        if np.any(lam < -TOL) or np.any(lam > 1.0 + TOL):
            v.append(f"{name} entries must lie in [0, 1]")
    d = model.support
    if len(d) < 2:
        v.append("support needs at least two points")
    elif np.any(np.diff(d) <= 0):
        v.append("support must be strictly increasing")
    if np.any(d < 0):
        v.append("support points must be nonnegative")
    if np.any(model.eps_mu < 0):
        v.append("eps_mu must be nonnegative")
    if np.any(model.eps_sigma_lo < -TOL) or np.any(model.eps_sigma_lo > 1.0 + TOL):
        v.append("eps_sigma_lo must lie in [0, 1]")
    if np.any(model.eps_sigma_hi < 1.0 - TOL):
        v.append("eps_sigma_hi must be at least 1")
    return v


def _check_valid(instance: Instance, model: DemandModel):
    violations = validate(instance, model)
    if violations:
        raise ValueError("invalid problem data: " + "; ".join(violations))


# ---------------------------------------------------------------------------
# Serialization (JSON; lossless at double precision)
# ---------------------------------------------------------------------------

def _support_fields(support: np.ndarray) -> dict:
    lo, hi = float(support[0]), float(support[-1])
    k = len(support)
    step = (hi - lo) / (k - 1)
    rebuilt = arithmetic_support(lo, hi, k)
    if not np.array_equal(rebuilt, support):
        raise ValueError("only evenly spaced supports serialize to {min, max, step}")
    return {"min": lo, "max": hi, "step": step}


def _support_from_fields(d: dict) -> np.ndarray:
    lo, hi, step = d["min"], d["max"], d["step"]
    if not step > 0:
        raise ValueError(f"support step must be positive, got {step!r}")
    k = int(round((hi - lo) / step)) + 1
    if k > 1 and abs((hi - lo) / (k - 1) - step) > TOL * step:
        raise ValueError(f"support step {step!r} does not divide min {lo!r} to "
                         f"max {hi!r} into equal parts")
    return arithmetic_support(lo, hi, k)


def sites_to_dict(instance: Instance) -> dict:
    """The site lists of a problem file: every facility's and customer's id
    and coordinates, in instance order."""
    def sites(ids, coords):
        return [{"id": i, "x": float(x), "y": float(y)} for i, (x, y) in zip(ids, coords)]
    return {"facilities": sites(instance.facility_ids, instance.facility_coords),
            "customers": sites(instance.customer_ids, instance.customer_coords)}


def problem_to_dict(instance: Instance, model: DemandModel) -> dict:
    doc = sites_to_dict(instance)
    for site, f, cap in zip(doc["facilities"], instance.open_cost, instance.capacity):
        site.update(f=float(f), C=float(cap))
    for site, p, r in zip(doc["customers"], instance.penalty, instance.revenue):
        site.update(p=float(p), r=float(r))
    return {
        **doc,
        "cost": instance.cost.tolist(),
        "demand": {
            "bar_mu": model.bar_mu.tolist(),
            "bar_sigma": model.bar_sigma.tolist(),
            "lambda_mu": model.lambda_mu.tolist(),
            "lambda_sigma": model.lambda_sigma.tolist(),
            "support": _support_fields(model.support),
            "eps_mu": model.eps_mu.tolist(),
            "eps_lo": model.eps_sigma_lo.tolist(),
            "eps_hi": model.eps_sigma_hi.tolist(),
        },
    }


def problem_from_dict(doc) -> tuple[Instance, DemandModel]:
    """Instance and demand model of a problem document.  ValueError names a
    document that is not a JSON object, a missing key, a value of the wrong
    type, a support step that is not positive or does not divide the support
    range, or data that :func:`validate` rejects."""
    if not isinstance(doc, dict):
        raise ValueError("problem is not a JSON object")
    try:
        fac = doc["facilities"]
        cus = doc["customers"]
        instance = Instance(
            facility_ids=tuple(f["id"] for f in fac),
            facility_coords=np.array([[f["x"], f["y"]] for f in fac]),
            open_cost=np.array([f["f"] for f in fac]),
            capacity=np.array([f["C"] for f in fac]),
            customer_ids=tuple(c["id"] for c in cus),
            customer_coords=np.array([[c["x"], c["y"]] for c in cus]),
            penalty=np.array([c["p"] for c in cus]),
            revenue=np.array([c["r"] for c in cus]),
            cost=np.array(doc["cost"]),
        )
        dm = doc["demand"]
        model = DemandModel(
            bar_mu=np.array(dm["bar_mu"]),
            bar_sigma=np.array(dm["bar_sigma"]),
            lambda_mu=np.array(dm["lambda_mu"]),
            lambda_sigma=np.array(dm["lambda_sigma"]),
            support=_support_from_fields(dm["support"]),
            eps_mu=np.array(dm["eps_mu"]),
            eps_sigma_lo=np.array(dm["eps_lo"]),
            eps_sigma_hi=np.array(dm["eps_hi"]),
        )
    except KeyError as exc:
        raise ValueError(f"problem lacks the key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"problem has a value of the wrong type: {exc}") from None
    _check_valid(instance, model)
    return instance, model


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` with LF line ends through a temp file, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_problem(path: str, instance: Instance, model: DemandModel) -> None:
    """Write instance + demand model atomically (temp file then rename)."""
    write_atomic(path, json.dumps(problem_to_dict(instance, model), indent=1) + "\n")


def load_problem(path: str) -> tuple[Instance, DemandModel]:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))
