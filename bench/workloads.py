"""The three workloads: their inputs, the timed public call and the checks.

An op is one call of a public ddrloc function on one generated instance.
A run's instances come from a fixed list of instance seeds derived from the
run's ``--seed``; all instances of a workload have the same sizes, so the
ops of a workload cost about the same.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import ddrloc.experiments
import ddrloc.solvers
from ddrloc.experiments import ExperimentConfig, generate_instance

import reference


def instance_seeds(seed: int, n: int) -> list[int]:
    return [1000 * seed + k for k in range(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    root_span: str                    # public function the op calls
    n_instances: int                  # ops per round
    config: Callable[[int], ExperimentConfig]
    call: Callable                    # timed: (config, instance, model, tmp) -> output
    keep: Callable                    # untimed: output -> comparable record
    check: Callable                   # (config, instance, model, record) -> [messages]

    def inputs(self, seed: int):
        out = []
        for s in instance_seeds(seed, self.n_instances):
            cfg = self.config(s)
            out.append((cfg, *generate_instance(cfg)))
        return out


# --- exact-milp ------------------------------------------------------------
# The exact reformulation at the library defaults (lambda_row_sum=0.5,
# kappa=0).  The 0.99 regime stays out: there the three-ray emptiness test
# misses empty sets and exact_solve retries for about 70 s.  At I=4 every
# instance tried takes the same 93 LP relaxations, so six instances per
# round give a run median that does not hang on which instances it drew;
# at I=5 about one instance in ten stops a round early and costs a third
# less, so a median over the few I=5 instances a run can hold moves with
# the instances it drew.

def _exact_call(cfg, instance, model, tmp):
    return ddrloc.solvers.exact_solve(instance, model)


def _exact_keep(out):
    sol, y, _ = out
    plan = None if y is None else tuple(int(v) for v in y)
    return (sol.status, float(sol.objective), float(sol.bound), plan)


def _exact_check(cfg, instance, model, record):
    return reference.check_exact(instance, model, record)


# --- oracle-windows --------------------------------------------------------
# Moment windows (kappa=0.1) and the default support K=100 both send the
# value oracle to its per-(plan, customer) simplex fallback.

def _oracle_call(cfg, instance, model, tmp):
    return ddrloc.solvers.enumerate_oracle(instance, model)


def _oracle_keep(out):
    y, objective = out
    return (tuple(int(v) for v in y), float(objective))


ORACLE_SAMPLE = 8


def _oracle_check(cfg, instance, model, record):
    rng = np.random.default_rng(cfg.seed)
    sample = [p for p in rng.integers(0, 2, size=(ORACLE_SAMPLE, instance.n_facilities))
              if tuple(p) != record[0]]
    return reference.check_oracle(instance, model, record, sample)


# --- compare-pinned --------------------------------------------------------
# The full `ddrloc compare` pipeline with artifacts, in the strongly coupled
# regime where the oracle takes its vectorized vertex path.

def _compare_call(cfg, instance, model, tmp):
    return ddrloc.experiments.run(replace(cfg, out=tempfile.mkdtemp(dir=tmp)))


def _compare_keep(run_dir):
    with open(os.path.join(run_dir, "compare.csv"), newline="") as fh:
        csv_text = fh.read()
    plans = {}
    for name in sorted(os.listdir(os.path.join(run_dir, "plans"))):
        with open(os.path.join(run_dir, "plans", name)) as fh:
            doc = json.load(fh)
        plans[doc["method"]] = tuple(doc["open_facilities"])
    shutil.rmtree(os.path.dirname(run_dir))
    return (csv_text, tuple(sorted(plans.items())))


def _compare_check(cfg, instance, model, record):
    csv_text, plans = record
    return reference.check_compare(instance, model, cfg, csv_text, dict(plans))


WORKLOADS = {w.name: w for w in (
    Workload("exact-milp", "solvers.exact_solve", 6,
             lambda s: ExperimentConfig(n_facilities=4, n_customers=10,
                                        support_size=12, seed=s),
             _exact_call, _exact_keep, _exact_check),
    Workload("oracle-windows", "solvers.enumerate_oracle", 3,
             lambda s: ExperimentConfig(n_facilities=7, n_customers=12,
                                        kappa=0.1, seed=s),
             _oracle_call, _oracle_keep, _oracle_check),
    Workload("compare-pinned", "experiments.run", 3,
             lambda s: ExperimentConfig(n_facilities=10, n_customers=20,
                                        support_size=20, lambda_row_sum=0.99,
                                        seed=s),
             _compare_call, _compare_keep, _compare_check),
)}


def warm_up(workload: Workload, tmp: str) -> None:
    """One op on a tiny instance, so lazy imports finish before timing."""
    cfg = replace(workload.config(0), n_facilities=2, n_customers=3, support_size=5,
                  sp_scenarios=(5,), n_test=10)
    workload.keep(workload.call(cfg, *generate_instance(cfg), tmp))
