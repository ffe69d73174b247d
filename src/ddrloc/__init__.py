"""Facility location under decision-dependent demand ambiguity.

A solver library for a two-stage facility location problem where the
demand distribution is only known through mean and second-moment windows,
and those moments shift with the set of opened facilities.  Includes the
closed-form recourse, the inner worst-case LPs and their duals, the exact
MILP reformulation with McCormick envelopes and feasibility cuts, LP/MILP
solvers on HiGHS, and out-of-sample benchmarking utilities.
"""

__version__ = "0.1.0"

from .instance import (DemandModel, Instance, apply_robustness_level,
                       arithmetic_support, big_lambda_matrix, chord_slacks,
                       chords, decision_independent, lambda_from_distance,
                       lambda_rho_means, load_problem, moment_windows,
                       plan_moments, save_problem, validate)
from .transport import (second_stage_costs, transport_lp_oracle,
                        unmet_by_customer)
from .worstcase import (AmbiguityInfeasibleError, DualCertificate,
                        FeasibilityReport, WorstCaseDistribution,
                        ambiguity_feasible, check_certificate, worst_case_dual,
                        worst_case_expectation, worst_case_values)
from .milp import (DualBounds, LinearExpr, MilpModel, build_dddr, build_sp_saa,
                   derive_dual_bounds, export_lp_text, mccormick_bilinear,
                   mccormick_trilinear, model_stats)
from .solvers import (LpSolution, MipSolution, branch_and_bound,
                      enumerate_oracle, exact_solve, simplex_solve)
from .benchmarks import (ComparisonResult, EvaluationReport, compare_methods,
                         evaluate_plan, gen_scenarios, train_sp)
from .experiments import (ExperimentConfig, fixture_figure2, generate_instance,
                          run)
