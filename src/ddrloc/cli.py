"""Command-line front end: gen, solve, evaluate, compare, export-lp, fixture.

``solve`` and ``compare`` enumerate the robust plans; ``export-lp`` writes
the paper's MILP, which has the same optimum.  Bad inputs exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .benchmarks import evaluate_plan, gen_scenarios, stat_lines, train_sp
from .experiments import (ExperimentConfig, fixture_figure2, generate_instance,
                          run)
from .instance import (decision_independent, load_problem, save_problem,
                       sites_to_dict, write_atomic)
from .milp import build_dddr, export_lp_text
from .solvers import enumerate_oracle


def _parse_size(text: str):
    try:
        n_i, n_j = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("size must be 'I,J', e.g. 10,20")
    return n_i, n_j


def _add_gen_options(p):
    cfg = ExperimentConfig()          # the generator's defaults live there
    p.add_argument("--kappa", type=float, default=cfg.kappa,
                   help="robustness level in [0,1] for the moment windows")
    p.add_argument("--cv2", type=float, default=cfg.cv2,
                   help="squared coefficient of variation of baseline demand")
    p.add_argument("--support", type=str, help="support as 'min,max,K'",
                   default=f"{cfg.support_min:g},{cfg.support_max:g},{cfg.support_size}")
    p.add_argument("--lambda-recipe", choices=["distance", "rho-means"],
                   default=cfg.lambda_recipe)
    p.add_argument("--lambda-row-sum", type=float, default=cfg.lambda_row_sum)
    p.add_argument("--rho", type=int, default=cfg.rho)
    p.add_argument("--penalty", type=float, default=cfg.penalty)
    p.add_argument("--revenue", type=float, default=cfg.revenue)


def _config_from_gen_args(args) -> ExperimentConfig:
    try:
        lo, hi, k = args.support.split(",")
        lo, hi, k = float(lo), float(hi), int(k)
    except ValueError:
        raise ValueError(f"support must be 'min,max,K', got {args.support!r}") from None
    n_i, n_j = args.size
    return ExperimentConfig(
        n_facilities=n_i, n_customers=n_j, seed=args.seed,
        penalty=args.penalty, revenue=args.revenue,
        support_min=lo, support_max=hi, support_size=k,
        kappa=args.kappa, cv2=args.cv2,
        lambda_recipe=args.lambda_recipe,
        lambda_row_sum=args.lambda_row_sum, rho=args.rho)


def _load_plan(path: str, instance) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    opens = doc.get("open_facilities") if isinstance(doc, dict) else None
    if not isinstance(opens, list):
        raise ValueError(f"plan file {path} has no open_facilities list")
    # exact types: JSON true and 1.0 compare equal to facility id 1
    unknown = [f for f in opens if type(f) is not int or f not in instance.facility_ids]
    if unknown:
        raise ValueError(f"plan file {path} opens facilities the problem lacks: {unknown}")
    return np.array([1 if fid in opens else 0 for fid in instance.facility_ids],
                    dtype=int)


def _write_plan(path, instance, y, method, objective, extra):
    doc = {"method": method,
           "open_facilities": sorted(int(instance.facility_ids[i])
                                     for i in np.flatnonzero(y)),
           "objective": objective, **extra}
    write_atomic(path, json.dumps(doc, indent=1) + "\n")


def cmd_gen(args) -> int:
    instance, model = generate_instance(_config_from_gen_args(args))
    save_problem(args.out, instance, model)
    print(f"wrote {args.out}: {instance.n_facilities} facilities, "
          f"{instance.n_customers} customers, K={model.support_size}")
    return 0


def cmd_solve(args) -> int:
    instance, model = load_problem(args.problem)
    extra = {}
    if args.method == "sp":
        y, obj = train_sp(instance, model, args.scenarios, seed=args.seed,
                          budget=args.budget)
        extra = {"scenarios": args.scenarios}
    else:
        m = decision_independent(model) if args.method == "dr" else model
        y, obj = enumerate_oracle(instance, m, args.budget)
    opens = sorted(int(instance.facility_ids[i]) for i in np.flatnonzero(y))
    print(f"{args.method}: objective {obj:.4f}, open {opens}")
    if args.out:
        _write_plan(args.out, instance, y, args.method, float(obj), extra)
    return 0


def cmd_evaluate(args) -> int:
    instance, model = load_problem(args.problem)
    y = _load_plan(args.plan, instance)
    demands = gen_scenarios(model, y, args.dist, args.n, args.seed)
    rep = evaluate_plan(instance, y, demands)
    print(f"scenarios: {len(demands)} ({args.dist})")
    print(f"mean objective: {rep.mean_objective:.4f} "
          f"(std {rep.std_objective:.4f})")
    for q, v in rep.objective_percentiles.items():
        print(f"  {q}% objective: {v:.4f}")
    print(f"mean unmet: {rep.mean_unmet:.4f} (std {rep.std_unmet:.4f})")
    for q, v in rep.unmet_percentiles.items():
        print(f"  {q}% unmet: {v:.4f}")
    if args.out:
        write_atomic(args.out, "\n".join(["statistic,value"] + stat_lines(rep)) + "\n")
    return 0


def cmd_compare(args) -> int:
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {args.config} is not a JSON object")
    for key in ("seed", "budget", "n_test"):
        val = getattr(args, key)
        if val is not None:
            doc[key] = val
    run_dir = run(ExperimentConfig.from_dict(doc))
    with open(f"{run_dir}/compare.txt") as fh:
        print(fh.read(), end="")
    print(f"artifacts in {run_dir}")
    return 0


def cmd_export_lp(args) -> int:
    instance, model = load_problem(args.problem)
    m = build_dddr(instance, model, budget=args.budget)
    write_atomic(args.out, export_lp_text(m))
    print(f"wrote {args.out}: {len(m.variables)} variables, "
          f"{len(m.constraints)} constraints")
    return 0


def cmd_fixture(args) -> int:
    doc = sites_to_dict(fixture_figure2())
    if args.out:
        write_atomic(args.out, json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    else:
        json.dump(doc, sys.stdout, indent=1)
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ddrloc",
        description="Facility location under decision-dependent demand "
                    "ambiguity: generate, solve, evaluate, compare.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random problem file")
    g.add_argument("--size", type=_parse_size, required=True, metavar="I,J")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    _add_gen_options(g)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="train one method on a problem file")
    s.add_argument("--problem", required=True)
    s.add_argument("--method", choices=["sp", "dr", "dddr"], required=True)
    s.add_argument("--scenarios", type=int, default=100,
                   help="training sample size for the sp method")
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None, help="plan file to write")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("evaluate", help="score a saved plan out of sample")
    e.add_argument("--problem", required=True)
    e.add_argument("--plan", required=True)
    e.add_argument("--dist", choices=["normal", "gamma", "perturbed"],
                   default="normal")
    e.add_argument("--n", type=int, default=1000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default=None, help="CSV file to write")
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("compare", help="full pipeline from a config file")
    c.add_argument("--config", required=True)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--n-test", dest="n_test", type=int, default=None)
    c.set_defaults(func=cmd_compare)

    x = sub.add_parser("export-lp", help="write the paper's robust MILP, cuts "
                                          "included, as LP text")
    x.add_argument("--problem", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--budget", type=int, default=None)
    x.set_defaults(func=cmd_export_lp)

    f = sub.add_parser("fixture", help="emit the fixed 10x20 coordinate layout")
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fixture)
    return p


def main(argv=None) -> int:
    """Run one command.  A RuntimeError, ValueError (AmbiguityInfeasibleError
    included) or OSError prints ``<command> failed: ...``, export-lp as
    ``export``, and exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"{args.command.split('-')[0]} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
