"""Command-line front end: gen, solve, evaluate, compare, export-lp, fixture."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .benchmarks import (evaluate_plan, gen_scenarios, sp_objective, sp_sample,
                         stat_lines, train_sp)
from .experiments import (ExperimentConfig, fixture_figure2, generate_instance,
                          run)
from .instance import (decision_independent, load_problem, save_problem,
                       write_atomic)
from .milp import DualBounds, build_dddr, export_lp_text


def _parse_size(text: str):
    try:
        n_i, n_j = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("size must be 'I,J', e.g. 10,20")
    return n_i, n_j


def _add_gen_options(p):
    p.add_argument("--kappa", type=float, default=0.0,
                   help="robustness level in [0,1] for the moment windows")
    p.add_argument("--cv2", type=float, default=1.0,
                   help="squared coefficient of variation of baseline demand")
    p.add_argument("--support", type=str, default="1,100,100",
                   help="support as 'min,max,K'")
    p.add_argument("--lambda-recipe", choices=["distance", "rho-means"],
                   default="distance")
    p.add_argument("--lambda-row-sum", type=float, default=0.5)
    p.add_argument("--rho", type=int, default=3)
    p.add_argument("--penalty", type=float, default=225.0)
    p.add_argument("--revenue", type=float, default=150.0)


def _config_from_gen_args(args) -> ExperimentConfig:
    lo, hi, k = args.support.split(",")
    n_i, n_j = args.size
    return ExperimentConfig(
        n_facilities=n_i, n_customers=n_j, seed=args.seed,
        penalty=args.penalty, revenue=args.revenue,
        support_min=float(lo), support_max=float(hi), support_size=int(k),
        kappa=args.kappa, cv2=args.cv2,
        lambda_recipe=args.lambda_recipe,
        lambda_row_sum=args.lambda_row_sum, rho=args.rho)


def _load_plan(path: str, instance) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    opens = set(doc["open_facilities"])
    return np.array([1 if fid in opens else 0 for fid in instance.facility_ids],
                    dtype=int)


def _write_plan(path, instance, y, method, objective, extra=None):
    doc = {"method": method,
           "open_facilities": sorted(int(instance.facility_ids[i])
                                     for i in np.flatnonzero(y)),
           "objective": objective}
    doc.update(extra or {})
    write_atomic(path, json.dumps(doc, indent=1) + "\n")


def cmd_gen(args) -> int:
    config = _config_from_gen_args(args)
    instance, model = generate_instance(config)
    save_problem(args.out, instance, model)
    print(f"wrote {args.out}: {instance.n_facilities} facilities, "
          f"{instance.n_customers} customers, K={model.support_size}")
    return 0


def cmd_solve(args) -> int:
    from .solvers import solve_robust

    instance, model = load_problem(args.problem)
    if args.method == "sp":
        y = train_sp(instance, model, args.scenarios, seed=args.seed,
                     budget=args.budget)
        obj = sp_objective(instance, y, sp_sample(model, args.scenarios, args.seed))
        extra = {"scenarios": args.scenarios}
    else:
        m = decision_independent(model) if args.method == "dr" else model
        try:
            y, obj, extra = solve_robust(instance, m, args.budget, args.solver,
                                         with_cuts=args.cuts == "on")
        except RuntimeError as exc:
            print(f"solve failed: {exc}", file=sys.stderr)
            return 1
    opens = sorted(int(instance.facility_ids[i]) for i in np.flatnonzero(y))
    print(f"{args.method}: objective {obj:.4f}, open {opens}")
    if args.out:
        _write_plan(args.out, instance, y, args.method, float(obj), extra)
    return 0


def cmd_evaluate(args) -> int:
    instance, model = load_problem(args.problem)
    y = _load_plan(args.plan, instance)
    scen = gen_scenarios(model, y, args.dist, args.n, args.seed)
    rep = evaluate_plan(instance, y, scen)
    print(f"scenarios: {scen.n_scenarios} ({args.dist})")
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
    for key in ("seed", "budget", "n_test"):
        val = getattr(args, key)
        if val is not None:
            doc[key] = val
    config = ExperimentConfig.from_dict(doc)
    run_dir = run(config)
    with open(f"{run_dir}/compare.txt") as fh:
        print(fh.read(), end="")
    print(f"artifacts in {run_dir}")
    return 0


def cmd_export_lp(args) -> int:
    instance, model = load_problem(args.problem)
    bounds = DualBounds.uniform(instance.n_customers, args.dual_bound)
    m = build_dddr(instance, model, bounds=bounds, budget=args.budget,
                   with_cuts=args.cuts == "on")
    write_atomic(args.out, export_lp_text(m))
    print(f"wrote {args.out}: {len(m.variables)} variables, "
          f"{len(m.constraints)} constraints")
    return 0


def cmd_fixture(args) -> int:
    instance = fixture_figure2()
    doc = {
        "facilities": [{"id": instance.facility_ids[i],
                        "x": float(instance.facility_coords[i, 0]),
                        "y": float(instance.facility_coords[i, 1])}
                       for i in range(instance.n_facilities)],
        "customers": [{"id": instance.customer_ids[j],
                       "x": float(instance.customer_coords[j, 0]),
                       "y": float(instance.customer_coords[j, 1])}
                      for j in range(instance.n_customers)],
    }
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
    s.add_argument("--cuts", choices=["on", "off"], default="on")
    s.add_argument("--solver", choices=["auto", "enumerate", "milp"],
                   default="auto")
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

    x = sub.add_parser("export-lp", help="write the robust MILP as LP text")
    x.add_argument("--problem", required=True)
    x.add_argument("--out", required=True)
    x.add_argument("--budget", type=int, default=None)
    x.add_argument("--cuts", choices=["on", "off"], default="on")
    x.add_argument("--dual-bound", dest="dual_bound", type=float, default=100.0)
    x.set_defaults(func=cmd_export_lp)

    f = sub.add_parser("fixture", help="emit the fixed 10x20 coordinate layout")
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fixture)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
