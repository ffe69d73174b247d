"""Instance generation and batch experiment orchestration.

Defaults mirror the synthetic benchmark family used throughout the tests:
sites uniform on the [0, 100] square, Euclidean unit transport costs,
opening costs U(5000, 10000), pair capacities U(10, 20), unit penalty 225,
unit revenue 150, baseline demand means U(20, 40) with standard deviation
equal to the mean, integer support 1..100, and distance-decay dependency
weights normalized to a row sum of one half.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .benchmarks import PERTURBED_REPS, compare_methods
from .instance import (DemandModel, Instance, _check_budget,
                       apply_robustness_level, arithmetic_support,
                       lambda_from_distance, lambda_rho_means, save_problem,
                       validate, write_atomic)

__all__ = [
    "ExperimentConfig",
    "generate_instance",
    "run",
    "fixture_figure2",
    "FIG2_FACILITIES",
    "FIG2_CUSTOMERS",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to replay a full generate/solve/evaluate run."""

    n_facilities: int = 10
    n_customers: int = 20
    seed: int = 0
    penalty: float = 225.0
    revenue: float = 150.0
    support_min: float = 1.0
    support_max: float = 100.0
    support_size: int = 100
    kappa: float = 0.0
    budget: int | None = None
    lambda_recipe: str = "distance"      # distance | rho-means
    lambda_scale: float = 25.0
    lambda_row_sum: float = 0.5
    rho: int = 3
    cv2: float = 1.0                     # squared coefficient of variation
    sp_scenarios: tuple = (20, 100)
    n_test: int = 1000
    dist: str = "normal"
    out: str = "runs"

    def validate(self) -> None:
        if self.n_facilities < 1 or self.n_customers < 1:
            raise ValueError("need at least one facility and one customer")
        if self.lambda_recipe not in ("distance", "rho-means"):
            raise ValueError(f"unknown lambda recipe {self.lambda_recipe!r}")
        if self.dist not in ("normal", "gamma", "perturbed"):
            raise ValueError(f"unknown test distribution {self.dist!r}")
        if self.n_test < 1:
            raise ValueError(f"need at least one test scenario, got n_test={self.n_test}")
        if self.dist == "perturbed" and self.n_test % PERTURBED_REPS:
            raise ValueError(f"perturbed test sets come in {PERTURBED_REPS} equal "
                             f"blocks; n_test={self.n_test} is not a multiple")
        if self.cv2 < 0:
            raise ValueError("squared coefficient of variation must be >= 0")
        if not all(type(n) is int and n >= 1 for n in self.sp_scenarios):
            raise ValueError("every SP sample size must be an integer of at least 1")
        if len(set(self.sp_scenarios)) != len(self.sp_scenarios):
            raise ValueError(f"SP sample sizes must differ, got {list(self.sp_scenarios)}")
        _check_budget(self.budget)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sp_scenarios"] = list(self.sp_scenarios)
        return d

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """Config from a JSON document; ValueError names bad keys and types."""
        json_types = {"int": (int,), "float": (int, float), "int | None": (int, type(None)),
                      "str": (str,), "tuple": (list, tuple)}
        types = {f.name: json_types[f.type] for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(set(doc) - set(types))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        # exact types: isinstance counts JSON true and false as ints
        wrong = sorted(k for k, v in doc.items() if type(v) not in types[k])
        if wrong:
            raise ValueError(f"config values of the wrong type: {', '.join(wrong)}")
        return ExperimentConfig(**{k: tuple(v) if k == "sp_scenarios" else v
                                   for k, v in doc.items()})

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def generate_instance(config: ExperimentConfig):
    """Sample a synthetic (instance, demand model) pair; deterministic in the
    config's seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n_i, n_j = config.n_facilities, config.n_customers
    fac_xy = rng.uniform(0.0, 100.0, size=(n_i, 2))
    cus_xy = rng.uniform(0.0, 100.0, size=(n_j, 2))
    open_cost = rng.uniform(5000.0, 10000.0, size=n_i)
    capacity = rng.uniform(10.0, 20.0, size=n_i)
    instance = Instance.from_sites(
        fac_xy, open_cost, capacity, cus_xy,
        penalty=np.full(n_j, config.penalty),
        revenue=np.full(n_j, config.revenue))
    bar_mu = rng.uniform(20.0, 40.0, size=n_j)
    bar_sigma = np.sqrt(config.cv2) * bar_mu
    if config.lambda_recipe == "distance":
        lam_mu, lam_sigma = lambda_from_distance(
            instance, decay_scale=config.lambda_scale,
            target_row_sum=config.lambda_row_sum)
    else:
        lam_mu, lam_sigma = lambda_rho_means(instance, config.rho)
    model = DemandModel(
        bar_mu=bar_mu, bar_sigma=bar_sigma,
        lambda_mu=lam_mu, lambda_sigma=lam_sigma,
        support=arithmetic_support(config.support_min, config.support_max,
                                   config.support_size),
        eps_mu=np.zeros(n_j),
        eps_sigma_lo=np.ones(n_j), eps_sigma_hi=np.ones(n_j))
    model = apply_robustness_level(model, config.kappa)
    problems = validate(instance, model)
    if problems:
        raise ValueError("generated problem violates invariants: " + "; ".join(problems))
    return instance, model


def run(config: ExperimentConfig) -> str:
    """Full pipeline: generate, train all methods, evaluate, write artifacts.

    Returns the run directory, which contains the problem file, one plan
    file per method, the comparison CSV and text table, and a manifest
    sufficient to replay the run.
    """
    instance, model = generate_instance(config)     # validates the config
    result = compare_methods(instance, model, config)

    run_dir = os.path.join(config.out, f"run_{config.digest()}")
    os.makedirs(os.path.join(run_dir, "plans"), exist_ok=True)
    save_problem(os.path.join(run_dir, "problem.json"), instance, model)
    for method in result.methods:
        rep = result.reports[method]
        doc = {
            "method": method,
            "open_facilities": sorted(result.plans[method]),
            "mean_objective": rep.mean_objective,
            "mean_unmet": rep.mean_unmet,
        }
        safe = method.replace("(", "_").replace(")", "")
        write_atomic(os.path.join(run_dir, "plans", f"{safe}.json"),
                     json.dumps(doc, indent=1) + "\n")
    write_atomic(os.path.join(run_dir, "compare.csv"), result.to_csv())
    write_atomic(os.path.join(run_dir, "compare.txt"), result.to_text())
    manifest = {
        "config": config.to_dict(),
        "config_hash": config.digest(),
        "version": __version__,
        "seed": config.seed,
    }
    write_atomic(os.path.join(run_dir, "manifest.json"),
                 json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return run_dir


# ---------------------------------------------------------------------------
# Hand-entered 10x20 coordinate fixture
# ---------------------------------------------------------------------------

FIG2_FACILITIES = (
    (54, 27), (42, 84), (0, 12), (67, 82), (13, 57),
    (89, 20), (18, 10), (21, 97), (81, 17), (81, 27),
)

FIG2_CUSTOMERS = (
    (43, 94), (81, 33), (17, 37), (0, 25), (79, 1),
    (59, 60), (10, 38), (3, 89), (98, 5), (89, 57),
    (74, 63), (58, 2), (21, 54), (76, 25), (28, 85),
    (97, 88), (35, 59), (35, 34), (17, 23), (4, 50),
)


def fixture_figure2() -> Instance:
    """Fixed 10-facility, 20-customer layout, the sites ``ddrloc fixture`` writes.

    Only the coordinates are pinned.  Opening costs and capacities are
    placeholder ones, and every customer has penalty 225 and revenue 150.
    """
    n_i, n_j = len(FIG2_FACILITIES), len(FIG2_CUSTOMERS)
    return Instance.from_sites(
        np.array(FIG2_FACILITIES, dtype=float), np.ones(n_i), np.ones(n_i),
        np.array(FIG2_CUSTOMERS, dtype=float),
        penalty=np.full(n_j, 225.0), revenue=np.full(n_j, 150.0))
