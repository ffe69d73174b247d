"""Out-of-sample evaluation of fixed plans and head-to-head method comparison.

:func:`gen_scenarios` is the one demand sampler: every scenario matrix, the
SP training draws included, is an (n, |J|) array it draws around the moments
a plan induces (the "true" world shifts with the chosen facilities).  A fixed
plan is scored on such a matrix by the closed-form second-stage cost,
scenario by scenario.  SP training bounds every plan's sample-average
objective from below in closed form and prices only the plans whose bound
can still win, by the robust solve's search (``solvers._bound_ordered``).
The comparison driver trains the stochastic, robust, and decision-dependent
robust plans and evaluates each on its own seed-controlled test set.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import solvers
from .instance import (DemandModel, Instance, _as_y, decision_independent,
                       plan_moments)
from .milp import build_sp_saa
from .transport import _plan_theta, second_stage_costs, unmet_by_customer

if TYPE_CHECKING:
    from .experiments import ExperimentConfig

__all__ = [
    "EvaluationReport",
    "PERCENTILE_LEVELS",
    "gen_scenarios",
    "evaluate_plan",
    "order_statistic",
    "stat_lines",
    "ComparisonResult",
    "compare_methods",
    "sp_objective",
    "train_sp",
]

PERCENTILE_LEVELS = (95, 90, 75, 50)
# The "perturbed" recipe of gen_scenarios resamples the moments this many
# times, in equal blocks.
PERTURBED_REPS = 10
# train_sp's lower bounds cut each customer's sorted draws into this many
# groups.
SP_GROUPS = 4


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregates of the per-scenario objective and unmet demand."""

    mean_objective: float
    std_objective: float
    objective_percentiles: dict
    mean_unmet: float
    std_unmet: float
    unmet_percentiles: dict
    objectives: np.ndarray = field(repr=False)
    unmet: np.ndarray = field(repr=False)


def gen_scenarios(model: DemandModel, y_hat, dist: str, n: int, seed: int) -> np.ndarray:
    """``n`` equally likely demand scenarios (n, |J|) around the moments of plan
    ``y_hat``, drawn from the recipe named by ``dist``.

    ``"normal"``: Normal draws, clamped at zero.  ``"gamma"``: Gamma draws
    matching the mean and variance, which must be strictly positive.
    ``"perturbed"``: :data:`PERTURBED_REPS` equal blocks, so ``n`` must be a
    multiple of it; each block draws a mean uniformly inside the relative
    mean window and a standard deviation uniformly inside the second-moment
    window factors, then clamped Normal scenarios around them.  With windows
    that collapse to a point (robustness level zero) ``"perturbed"`` draws
    exactly the ``"normal"`` scenarios.  SP trains on ``"normal"`` draws at
    the empty plan, that is at the baseline moments.
    """
    if dist not in ("normal", "gamma", "perturbed"):
        raise ValueError(f"unknown scenario distribution {dist!r}")
    if dist == "perturbed" and n % PERTURBED_REPS:
        raise ValueError(f"perturbed scenarios come in {PERTURBED_REPS} equal "
                         f"blocks; n={n} is not a multiple of {PERTURBED_REPS}")
    if n < 1:
        raise ValueError(f"need at least one scenario, got n={n}")
    mu, var = (m[0] for m in plan_moments(model, y_hat))
    if np.any(var < 0):
        raise ValueError("negative variance under the given plan")
    sigma = np.sqrt(var)
    rng = np.random.default_rng(seed)
    if dist == "normal":
        return np.maximum(rng.normal(mu, sigma, size=(n, len(mu))), 0.0)
    if dist == "gamma":
        if np.any(mu <= 0) or np.any(sigma <= 0):
            raise ValueError("gamma generation needs strictly positive moments")
        theta = sigma ** 2 / mu
        return rng.gamma(mu / theta, theta, size=(n, len(mu)))
    rel = np.divide(model.eps_mu, model.bar_mu,
                    out=np.zeros_like(model.eps_mu), where=model.bar_mu > 0)
    degenerate = (np.all(rel == 0.0) and np.all(model.eps_sigma_lo == 1.0)
                  and np.all(model.eps_sigma_hi == 1.0))
    blocks = []
    for _ in range(PERTURBED_REPS):
        if degenerate:
            # Windows collapse to a point; skip the draws so the stream (and
            # hence the scenarios) match plain Normal generation exactly.
            rep_mu, rep_sigma = mu, sigma
        else:
            rep_mu = rng.uniform((1.0 - rel) * mu, (1.0 + rel) * mu)
            rep_sigma = rng.uniform(model.eps_sigma_lo * sigma,
                                    model.eps_sigma_hi * sigma)
        blocks.append(rng.normal(rep_mu, rep_sigma,
                                 size=(n // PERTURBED_REPS, len(mu))))
    return np.maximum(np.vstack(blocks), 0.0)


def order_statistic(values: np.ndarray, level: int) -> float:
    """Worst-tail order statistic: the ceil((1 - level/100) n)-th largest value."""
    n = len(values)
    rank = max(1, int(-((-(100 - level) * n) // 100)))   # integer ceil, no fp error
    return float(np.sort(values)[::-1][rank - 1])


# Statistics of an evaluation report in table order: (CSV key, text label).
_STATS = (("mean_objective", "average objective"),
          ("std_objective", "std objective"),
          ("obj_p95", "95% objective"),
          ("obj_p90", "90% objective"),
          ("obj_p75", "75% objective"),
          ("obj_p50", "50% objective"),
          ("mean_unmet", "average unmet demand"),
          ("std_unmet", "std unmet demand"),
          ("unmet_p95", "95% unmet demand"),
          ("unmet_p90", "90% unmet demand"),
          ("unmet_p75", "75% unmet demand"),
          ("unmet_p50", "50% unmet demand"))


def _stat(report: EvaluationReport, key: str) -> float:
    if key.startswith("obj_p"):
        return report.objective_percentiles[int(key[5:])]
    if key.startswith("unmet_p"):
        return report.unmet_percentiles[int(key[7:])]
    return getattr(report, key)


def stat_lines(report: EvaluationReport) -> list[str]:
    """``key,value`` CSV lines of every statistic, in table order."""
    return [f"{key},{_stat(report, key):.10g}" for key, _ in _STATS]


def _check_demands(instance: Instance, demands) -> np.ndarray:
    """``demands`` as a float array; ValueError unless it is a finite,
    nonnegative (n >= 1, |J|) matrix."""
    demands = np.asarray(demands, dtype=float)
    if demands.ndim != 2 or demands.shape[0] < 1 or demands.shape[1] != instance.n_customers:
        raise ValueError(f"demands must be an (n >= 1, {instance.n_customers}) "
                         f"matrix, got shape {demands.shape}")
    if not np.all(np.isfinite(demands)):
        raise ValueError("demands must be finite")
    if np.any(demands < 0):
        raise ValueError("demands must be nonnegative")
    return demands


def evaluate_plan(instance: Instance, y_hat, demands) -> EvaluationReport:
    """Score a fixed plan via the closed-form recourse on equally likely
    demand scenarios, a finite, nonnegative (n, |J|) matrix with n >= 1."""
    demands = _check_demands(instance, demands)
    y = _as_y(y_hat)
    fixed = float(instance.open_cost @ y)
    objectives = fixed + second_stage_costs(instance, y, demands)
    unmet = unmet_by_customer(instance, y, demands).sum(axis=1)
    return EvaluationReport(
        mean_objective=float(objectives.mean()),
        std_objective=float(objectives.std()),
        objective_percentiles={q: order_statistic(objectives, q)
                               for q in PERCENTILE_LEVELS},
        mean_unmet=float(unmet.mean()),
        std_unmet=float(unmet.std()),
        unmet_percentiles={q: order_statistic(unmet, q) for q in PERCENTILE_LEVELS},
        objectives=objectives,
        unmet=unmet,
    )


# ---------------------------------------------------------------------------
# Training routes for the comparison
# ---------------------------------------------------------------------------

def sp_objective(instance: Instance, y, draws: np.ndarray):
    """Opening cost plus the sample-average recourse of plan ``y``.

    One plan of shape (|I|,) gives a float; a plan matrix of shape (P, |I|)
    gives one objective per row, each with the bits of its plan alone.  That
    is why every plan keeps its own ``open_cost @ y``: a matrix-vector
    product rounds differently, and plan ties are decided within 1e-12.
    ``draws`` is checked as :func:`evaluate_plan` checks its demands.
    """
    draws = _check_demands(instance, draws)
    ys = np.asarray(y)
    fixed = np.array([instance.open_cost @ row for row in np.atleast_2d(ys)])
    objectives = fixed + second_stage_costs(instance, ys, draws).mean(axis=-1)
    return float(objectives[0]) if ys.ndim == 1 else objectives


def _sp_bounds(instance: Instance, ys, draws: np.ndarray) -> np.ndarray:
    """A lower bound on the :func:`sp_objective` of each plan of ``ys``.

    Each customer's draws are sorted and cut into :data:`SP_GROUPS` groups
    of equal size, up to one (empty groups are skipped when there are fewer
    draws), and group g weighs |g|/n.  The sample-average recourse is the
    sum over customers and groups of |g|/n times the mean of theta_j over
    the group's draws; theta_j is convex in the demand, so by Jensen's
    inequality that mean is at least theta_j at the group's mean demand.
    Any partition gives a bound; the sorted one puts close demands together,
    where theta_j is nearly affine, so its bounds are the tightest.
    """
    groups = [g for g in np.array_split(np.sort(draws, axis=0), SP_GROUPS) if len(g)]
    theta = _plan_theta(instance, ys)
    recourse = sum(len(g) / len(draws) * theta(g.mean(axis=0)) for g in groups)
    return ys @ instance.open_cost + recourse.sum(axis=1)


def train_sp(instance: Instance, model: DemandModel, n_scen: int, seed: int,
             budget=None):
    """Sample-average plan and its :func:`sp_objective`, as ``(y, objective)``.

    Training scenarios ignore the decision dependence: ``n_scen`` Normal
    draws of :func:`gen_scenarios` at the empty plan (baseline moments).
    Beyond 14 facilities the scenario MILP is solved by branch and bound.
    Up to 14, the answer is the one a scan of every plan under the budget
    gives, in ``plans_under_budget`` order, in which a later plan must beat
    the best so far by more than 1e-12: ties go to the earliest plan.  The
    scan runs over the plans that ``solvers._bound_ordered`` prices by
    :func:`sp_objective` in the order of their :func:`_sp_bounds`; the
    search's docstring shows why it ends on the same plan, with the same bits.
    """
    if n_scen < 1:
        raise ValueError(f"SP sample size must be at least 1, got {n_scen}")
    draws = gen_scenarios(model, np.zeros(instance.n_facilities), "normal",
                          n_scen, seed)
    if instance.n_facilities <= 14:
        plans, bound = solvers._bounded_plans(instance.n_facilities, budget, lambda ys: (
            np.ones(len(ys), dtype=bool), _sp_bounds(instance, ys, draws)))
        sel, values, _ = solvers._bound_ordered(
            bound, lambda s: sp_objective(instance, plans(s), draws), [], math.inf)
        best, best_v = None, math.inf
        for i in np.argsort(sel):                          # in scan order
            if values[i] < best_v - 1e-12:
                best, best_v = sel[i], values[i]
        return plans([best])[0], float(best_v)
    m = build_sp_saa(instance, draws, budget=budget)
    sol = solvers.branch_and_bound(m)
    if sol.status != "optimal":
        raise RuntimeError(f"scenario MILP ended {sol.status}")
    y = np.array([round(sol.x[nm]) for nm in m.meta["y_vars"]], dtype=int)
    return y, sp_objective(instance, y, draws)


# ---------------------------------------------------------------------------
# Comparison driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonResult:
    """Per-method plans and reports, with fixed-format CSV/text rendering."""

    methods: tuple
    plans: dict
    reports: dict

    def to_csv(self) -> str:
        lines = ["method,statistic,value"]
        for method in self.methods:
            lines += [f"{method},{line}" for line in stat_lines(self.reports[method])]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        out = io.StringIO()
        width = max(len(m) for m in self.methods) + 2
        header = f"{'statistic':<24}" + "".join(f"{m:>{max(width, 14)}}"
                                                for m in self.methods)
        out.write(header + "\n" + "-" * len(header) + "\n")
        for key, label in _STATS:
            row = f"{label:<24}"
            for m in self.methods:
                row += f"{_stat(self.reports[m], key):>{max(width, 14)}.2f}"
            out.write(row + "\n")
        out.write("\nopen facilities\n")
        for m in self.methods:
            out.write(f"  {m}: {sorted(self.plans[m])}\n")
        return out.getvalue()


def compare_methods(instance: Instance, model: DemandModel,
                    config: ExperimentConfig) -> ComparisonResult:
    """Train SP(n) for each of the config's ``sp_scenarios`` sizes, DR and
    the decision-dependent robust model under its ``budget``, then evaluate
    every plan on its own test set of ``n_test`` ``dist`` scenarios.

    Test sets share the config's seed but are generated per plan because the
    true moments move with the open facilities.  The config is validated
    first, so a repeated SP size cannot overwrite a plan.
    """
    config.validate()
    plans = {}
    for k, n_scen in enumerate(config.sp_scenarios):
        plans[f"SP({n_scen})"] = train_sp(instance, model, n_scen,
                                          seed=config.seed + 1000 * (k + 1),
                                          budget=config.budget)[0]
    plans["DR"] = solvers.enumerate_oracle(instance, decision_independent(model), config.budget)[0]
    plans["DDDR"] = solvers.enumerate_oracle(instance, model, config.budget)[0]

    reports = {}
    for method, y in plans.items():
        demands = gen_scenarios(model, y, config.dist, config.n_test, config.seed)
        reports[method] = evaluate_plan(instance, y, demands)
    methods = tuple(plans)
    plan_ids = {m: tuple(int(instance.facility_ids[i])
                         for i in np.flatnonzero(plans[m])) for m in methods}
    return ComparisonResult(methods=methods, plans=plan_ids, reports=reports)
