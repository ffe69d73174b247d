"""Out-of-sample evaluation of fixed plans and head-to-head method comparison.

Test scenarios are generated from the plan-dependent moments (the "true"
world shifts with the chosen facilities), then a fixed plan is scored by
the closed-form second-stage cost scenario by scenario.  The comparison
driver trains the stochastic, robust, and decision-dependent robust plans
and evaluates each on its own seed-controlled test set.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .instance import (DemandModel, Instance, _as_y, decision_independent,
                       means_vector, plans_under_budget, variances_vector)
from .transport import second_stage_costs, unmet_by_customer

__all__ = [
    "ScenarioSet",
    "EvaluationReport",
    "PERCENTILE_LEVELS",
    "gen_normal",
    "gen_gamma",
    "gen_perturbed",
    "gen_scenarios",
    "evaluate_plan",
    "order_statistic",
    "stat_lines",
    "ComparisonConfig",
    "ComparisonResult",
    "compare_methods",
    "sp_sample",
    "sp_objective",
    "train_sp",
]

PERCENTILE_LEVELS = (95, 90, 75, 50)
# gen_perturbed resamples the moments this many times, in equal blocks.
PERTURBED_REPS = 10


@dataclass(frozen=True)
class ScenarioSet:
    """Demand scenarios (n, |J|) with probabilities and provenance."""

    demands: np.ndarray
    probabilities: np.ndarray
    seed: int
    generator: str

    def __post_init__(self):
        n = self.demands.shape[0]
        if n < 1:
            raise ValueError("need at least one scenario")
        if len(self.probabilities) != n:
            raise ValueError("probabilities do not match scenario count")
        if abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to one")
        if np.any(self.demands < 0):
            raise ValueError("demands must be nonnegative")

    @property
    def n_scenarios(self) -> int:
        return self.demands.shape[0]


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


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _plan_moments(model: DemandModel, y_hat):
    y = _as_y(y_hat)
    mu = means_vector(model, y)
    var = variances_vector(model, y)
    if np.any(var < 0):
        raise ValueError("negative variance under the given plan")
    return mu, np.sqrt(var)


def gen_normal(model: DemandModel, y_hat, n: int = 1000, seed: int = 0) -> ScenarioSet:
    """Normal draws around the plan-dependent moments, clamped at zero."""
    mu, sigma = _plan_moments(model, y_hat)
    rng = np.random.default_rng(seed)
    draws = rng.normal(mu, sigma, size=(n, len(mu)))
    return ScenarioSet(np.maximum(draws, 0.0), _uniform(n), seed, "normal")


def gen_gamma(model: DemandModel, y_hat, n: int = 1000, seed: int = 0) -> ScenarioSet:
    """Gamma draws matching the plan-dependent mean and variance."""
    mu, sigma = _plan_moments(model, y_hat)
    if np.any(mu <= 0) or np.any(sigma <= 0):
        raise ValueError("gamma generation needs strictly positive moments")
    theta = sigma ** 2 / mu
    shape = mu / theta
    rng = np.random.default_rng(seed)
    draws = rng.gamma(shape, theta, size=(n, len(mu)))
    return ScenarioSet(draws, _uniform(n), seed, "gamma")


def gen_perturbed(model: DemandModel, y_hat, n: int = 1000, seed: int = 0) -> ScenarioSet:
    """Normal draws whose moments are themselves resampled once per rep.

    The ``n`` scenarios come in :data:`PERTURBED_REPS` equal blocks, so ``n``
    must be a multiple of it.  Each rep draws a mean uniformly inside the
    relative mean window and a standard deviation uniformly inside the
    second-moment window factors, then generates its block of clamped Normal
    scenarios.  At a robustness level of zero this reduces to plain Normal
    generation.
    """
    if n % PERTURBED_REPS:
        raise ValueError(f"perturbed scenarios come in {PERTURBED_REPS} equal "
                         f"blocks; n={n} is not a multiple of {PERTURBED_REPS}")
    mu, sigma = _plan_moments(model, y_hat)
    rel = np.divide(model.eps_mu, model.bar_mu,
                    out=np.zeros_like(model.eps_mu), where=model.bar_mu > 0)
    degenerate = (np.all(rel == 0.0) and np.all(model.eps_sigma_lo == 1.0)
                  and np.all(model.eps_sigma_hi == 1.0))
    rng = np.random.default_rng(seed)
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
    draws = np.maximum(np.vstack(blocks), 0.0)
    return ScenarioSet(draws, _uniform(n), seed, "perturbed")


def gen_scenarios(model: DemandModel, y_hat, dist: str, n: int, seed: int) -> ScenarioSet:
    """``n`` test scenarios from the generator named by ``dist``."""
    return {"normal": gen_normal, "gamma": gen_gamma,
            "perturbed": gen_perturbed}[dist](model, y_hat, n=n, seed=seed)


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


def evaluate_plan(instance: Instance, y_hat, scenarios: ScenarioSet) -> EvaluationReport:
    """Score a fixed plan on a scenario set via the closed-form recourse."""
    y = _as_y(y_hat)
    fixed = float(instance.open_cost @ y)
    objectives = fixed + second_stage_costs(instance, y, scenarios.demands)
    unmet = unmet_by_customer(instance, y, scenarios.demands).sum(axis=1)
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

def sp_sample(model: DemandModel, n_scen: int, seed: int) -> np.ndarray:
    """SP training demands: clamped Normal draws at the baseline moments (y = 0)."""
    rng = np.random.default_rng(seed)
    return np.maximum(
        rng.normal(model.bar_mu, model.bar_sigma,
                   size=(n_scen, len(model.bar_mu))), 0.0)


def sp_objective(instance: Instance, y, draws: np.ndarray) -> float:
    """Opening cost plus the sample-average recourse of plan ``y``."""
    return float(instance.open_cost @ y + second_stage_costs(instance, y, draws).mean())


def train_sp(instance: Instance, model: DemandModel, n_scen: int, seed: int,
             budget=None) -> np.ndarray:
    """Sample-average plan on :func:`sp_sample` draws.

    Training scenarios ignore the decision dependence (moments at y = 0);
    for up to 14 facilities the plans are enumerated against the vectorized
    closed form, otherwise the scenario MILP is solved by branch and bound.
    """
    draws = sp_sample(model, n_scen, seed)
    if instance.n_facilities <= 14:
        best_y, best = None, math.inf
        for y in map(np.array, plans_under_budget(instance.n_facilities, budget)):
            obj = sp_objective(instance, y, draws)
            if obj < best - 1e-12:
                best_y, best = y, obj
        return best_y
    from .milp import build_sp_saa
    from .solvers import branch_and_bound
    scen = ScenarioSet(draws, _uniform(n_scen), seed, "normal")
    m = build_sp_saa(instance, scen, budget=budget)
    sol = branch_and_bound(m)
    if sol.status != "optimal":
        raise RuntimeError(f"scenario MILP ended {sol.status}")
    return np.array([round(sol.x[nm]) for nm in m.meta["y_vars"]], dtype=int)


# ---------------------------------------------------------------------------
# Comparison driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonConfig:
    sp_sizes: tuple = (20, 100)
    budget: int | None = None
    n_test: int = 1000
    dist: str = "normal"
    seed: int = 0
    solver: str = "auto"        # auto | enumerate | milp


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
                    config: ComparisonConfig = ComparisonConfig()) -> ComparisonResult:
    """Train SP(n) for each requested size, DR and the decision-dependent
    robust model, then evaluate every plan on its own test set.

    Test sets share a base seed but are generated per plan because the true
    moments move with the open facilities.
    """
    from .solvers import solve_robust

    plans = {}
    for k, n_scen in enumerate(config.sp_sizes):
        plans[f"SP({n_scen})"] = train_sp(instance, model, n_scen,
                                          seed=config.seed + 1000 * (k + 1),
                                          budget=config.budget)
    plans["DR"] = solve_robust(instance, decision_independent(model),
                               config.budget, config.solver)[0]
    plans["DDDR"] = solve_robust(instance, model, config.budget, config.solver)[0]

    reports = {}
    for method, y in plans.items():
        scen = gen_scenarios(model, y, config.dist, config.n_test, config.seed)
        reports[method] = evaluate_plan(instance, y, scen)
    methods = tuple(plans)
    plan_ids = {m: tuple(int(instance.facility_ids[i])
                         for i in np.flatnonzero(plans[m])) for m in methods}
    return ComparisonResult(methods=methods, plans=plan_ids, reports=reports)
