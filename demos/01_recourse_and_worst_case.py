"""Tour of the second-stage recourse and the adversarial demand distribution.

A small two-facility, one-customer system is enough to see all the moving
parts: the closed-form recourse cost, its agreement with a transport LP,
the worst-case distribution over a finite demand support, and the dual
certificate that proves the worst case is really the worst case.

Run:  python3 demos/01_recourse_and_worst_case.py
"""

import sys

import numpy as np

from ddrloc import (ambiguity_feasible, check_certificate, second_stage_costs,
                    transport_lp_oracle, worst_case_dual,
                    worst_case_expectation)
from ddrloc.instance import Instance, DemandModel, arithmetic_support

# Two facilities serving one customer.  Facility 1 is cheap but small,
# facility 2 pricier but bigger.  Lost demand costs 50 per unit (penalty 60
# minus revenue 10 already folded into the recourse).
inst = Instance(
    facility_ids=(1, 2), customer_ids=(1,),
    facility_coords=np.zeros((2, 2)), customer_coords=np.zeros((1, 2)),
    open_cost=np.array([100.0, 160.0]),
    capacity=np.array([15.0, 30.0]),
    cost=np.array([[2.0], [5.0]]),
    penalty=np.array([60.0]), revenue=np.array([10.0]),
)

# Demand lives on {0, 5, ..., 50}.  Opening facility 1 lifts the mean by
# 20% and trims the variance by 10% (demand attraction).
model = DemandModel(
    bar_mu=np.array([20.0]), bar_sigma=np.array([8.0]),
    lambda_mu=np.array([[0.2], [0.0]]).T,
    lambda_sigma=np.array([[0.1], [0.0]]).T,
    support=arithmetic_support(0.0, 50.0, 11),
    eps_mu=np.array([2.0]),
    eps_sigma_lo=np.array([0.9]), eps_sigma_hi=np.array([1.1]),
)

print("== Recourse cost for a fixed plan and demand ==")
for y in ([0, 0], [1, 0], [1, 1]):
    for d in (10.0, 40.0):
        h = second_stage_costs(inst, y, [d])[0]
        lp = transport_lp_oracle(inst, y, [d])
        print(f"  y={y} d={d:5.1f}  closed form {h:9.2f}   LP {lp:9.2f}"
              f"   (diff {abs(h - lp):.1e})")

print("\n== Worst-case expected cost over the ambiguity set ==")
for y in ([0, 0], [1, 0], [1, 1]):
    ok = ambiguity_feasible(inst, model, y)
    wc, dist = worst_case_expectation(inst, model, y)
    dual, cert = worst_case_dual(inst, model, y)
    support_mass = {float(d): round(float(p), 3)
                    for d, p in zip(model.support, dist.pi[0]) if p > 1e-9}
    print(f"  y={y}  feasible={bool(ok)}  primal {wc:8.2f}  dual {dual:8.2f}")
    print(f"         adversary's distribution: {support_mass}")
    bad = check_certificate(inst, model, y, cert)
    if bad:
        sys.exit(f"certificate at y={y} is not dual feasible: {bad}")

print("\nThe primal/dual agreement is strong duality of the per-customer")
print("moment LP; the certificate check verifies feasibility of the dual")
print("multipliers and that their objective matches the primal value.")
