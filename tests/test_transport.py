import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_plans, random_problem, recover_allocation, toy_instance
from ddrloc.benchmarks import evaluate_plan
from ddrloc.transport import (_intercepts, _pieces, second_stage_costs,
                              transport_lp_oracle, unmet_by_customer)


def h(inst, y, d):
    """Second-stage cost of one plan at one demand vector."""
    return float(second_stage_costs(inst, y, [d])[0])


def test_single_facility_hand_value():
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[3.0], revenue=[2.0])
    assert h(inst, [1], [15.0]) == pytest.approx(-5.0)   # ship 10 at cost 1, penalize 5, revenue 30


def test_all_closed_is_pure_penalty():
    inst, model = random_problem(2, 3, 4)
    d = np.array([5.0, 7.0, 1.0, 2.5])
    expect = float((inst.penalty - inst.revenue) @ d)
    assert h(inst, np.zeros(3), d) == pytest.approx(expect)
    assert transport_lp_oracle(inst, np.zeros(3), d) == pytest.approx(expect)


def test_two_facility_hand_value():
    inst = toy_instance(cost=[[1.0], [2.0]], capacity=[5.0, 5.0],
                        penalty=[4.0], revenue=[0.0])
    assert h(inst, [1, 1], [12.0]) == pytest.approx(23.0)   # 5*1 + 5*2 + 2*4


def test_recover_allocation_matches_hand_value():
    inst = toy_instance(cost=[[1.0], [2.0]], capacity=[5.0, 5.0],
                        penalty=[4.0], revenue=[0.0])
    alloc = recover_allocation(inst, [1, 1], [12.0])
    assert alloc.x[:, 0].tolist() == [5.0, 5.0]
    assert alloc.s[0] == pytest.approx(2.0)
    assert alloc.value == pytest.approx(23.0)


def test_recover_allocation_trivial_cases():
    inst = toy_instance(cost=[[1.0]], capacity=[100.0], penalty=[3.0], revenue=[0.0])
    alloc = recover_allocation(inst, [1], [7.0])
    assert alloc.x[0, 0] == 7.0 and alloc.s[0] == 0.0
    alloc = recover_allocation(inst, [0], [7.0])
    assert alloc.x[0, 0] == 0.0 and alloc.s[0] == 7.0


def test_negative_demand_rejected():
    # No allocation meets a negative demand: the LP oracle reports the
    # infeasible recourse as an error rather than a cost, and evaluate_plan
    # refuses such a demand before anything prices it.
    inst = toy_instance(cost=[[1.0]], capacity=[10.0], penalty=[3.0], revenue=[2.0])
    with pytest.raises(RuntimeError, match="transport LP unexpectedly infeasible"):
        transport_lp_oracle(inst, [1], [-1.0])
    with pytest.raises(ValueError, match="demands must be nonnegative"):
        evaluate_plan(inst, [1], np.array([[5.0], [-1.0]]))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_closed_form_equals_lp_oracle(seed):
    rng = np.random.default_rng(seed)
    n_i = int(rng.integers(1, 7))
    n_j = int(rng.integers(1, 7))
    inst, _ = random_problem(seed % 500, n_i, n_j)
    y = rng.integers(0, 2, size=n_i)
    d = rng.uniform(0, 120, size=n_j)
    assert h(inst, y, d) == pytest.approx(transport_lp_oracle(inst, y, d), abs=1e-6)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_allocation_feasibility_and_value(seed):
    rng = np.random.default_rng(seed)
    inst, _ = random_problem(seed % 300, 4, 5)
    y = rng.integers(0, 2, size=4)
    d = rng.uniform(0, 100, size=5)
    alloc = recover_allocation(inst, y, d)
    np.testing.assert_allclose(alloc.x.sum(axis=0) + alloc.s, d, atol=1e-9)
    assert np.all(alloc.x >= 0) and np.all(alloc.s >= 0)
    cap = inst.capacity[:, None] * np.asarray(y)[:, None]
    assert np.all(alloc.x <= cap + 1e-9)
    assert alloc.value == pytest.approx(h(inst, y, d), abs=1e-7)


def test_h_convex_and_monotone_in_opening():
    inst, _ = random_problem(7, 4, 3)
    rng = np.random.default_rng(7)
    y = np.array([1, 0, 1, 0])
    # midpoint convexity in each coordinate of d
    for _ in range(20):
        a = rng.uniform(0, 100, size=3)
        b = rng.uniform(0, 100, size=3)
        mid = 0.5 * (a + b)
        assert h(inst, y, mid) <= 0.5 * h(inst, y, a) + 0.5 * h(inst, y, b) + 1e-9
    # opening one more facility never increases the cost
    d = rng.uniform(0, 100, size=3)
    for i in (1, 3):
        y2 = y.copy()
        y2[i] = 1
        assert h(inst, y2, d) <= h(inst, y, d) + 1e-9


def test_second_stage_costs_vectorization():
    inst, _ = random_problem(9, 3, 4)
    rng = np.random.default_rng(9)
    y = np.array([1, 1, 0])
    demands = rng.uniform(0, 80, size=(15, 4))
    vals = second_stage_costs(inst, y, demands)
    for w in range(15):
        assert vals[w] == pytest.approx(transport_lp_oracle(inst, y, demands[w]), abs=1e-6)
    # A plan matrix gives each row the bits of that plan's own call, for
    # every plan with and without a budget, zero demands included; from ten
    # facilities on numpy sums the intercepts pairwise, and a Fortran-ordered
    # cost matrix must not change how.
    demands = np.maximum(rng.normal(30.0, 30.0, size=(40, 5)), 0.0)
    assert np.any(demands == 0.0)
    big, _ = random_problem(19, 10, 5)
    for inst in (random_problem(19, 6, 5)[0], big,
                 dataclasses.replace(big, cost=np.asfortranarray(big.cost))):
        for budget in (None, 2):
            ys = all_plans(inst.n_facilities, budget)
            rows = second_stage_costs(inst, ys, demands)
            assert rows.shape == (len(ys), 40)
            assert rows.tobytes() == second_stage_costs(inst, ys.astype(float),
                                                        demands).tobytes()
            for y, row in zip(ys, rows):
                assert row.tobytes() == second_stage_costs(inst, y, demands).tobytes()
    # the cost matrix's memory order changes no bit, of the scenario costs or
    # of the stacked table's intercepts, and the table gives every customer
    # the bits of its own slice
    assert big.cost.flags.c_contiguous and not inst.cost.flags.c_contiguous
    assert second_stage_costs(inst, ys, demands).tobytes() == \
        second_stage_costs(big, ys, demands).tobytes()
    gaps, fortran_gaps = _pieces(big)[1], _pieces(inst)[1]
    for y in all_plans(big.n_facilities)[::7]:
        stacked = _intercepts(big, gaps, y).tobytes()
        assert stacked == _intercepts(inst, fortran_gaps, y).tobytes()
        assert stacked == np.array([_intercepts(big, g, y) for g in gaps]).tobytes()


def test_unmet_is_shortfall_against_open_capacity():
    inst, _ = random_problem(4, 3, 4)
    y = np.array([1, 0, 1])
    open_cap = float(inst.capacity @ y)
    demands = np.array([[open_cap - 1.0, open_cap, open_cap + 5.0, 0.0]])
    s = unmet_by_customer(inst, y, demands)[0]
    assert s.tolist() == [0.0, 0.0, pytest.approx(5.0), 0.0]
    alloc = recover_allocation(inst, y, demands[0])
    np.testing.assert_allclose(alloc.s, s, atol=1e-9)


def test_theta_pieces_family():
    inst, model = random_problem(6, 3, 4)
    cand, gaps = _pieces(inst)
    assert cand.shape == (4, 4) and gaps.shape == (4, 4, 3)
    assert cand.flags.c_contiguous and gaps.flags.c_contiguous
    jj = 0
    d_k = model.support[2]
    # one piece per candidate, penalty first: constant (c_i* - r) d_k and
    # coefficients C_i gaps[i*, i] on y_i
    fam = [((c_star - inst.revenue[jj]) * d_k, inst.capacity * g)
           for c_star, g in zip(cand[jj], gaps[jj])]
    assert cand[jj, 0] == inst.penalty[jj] and np.array_equal(cand[jj, 1:], inst.cost[:, jj])
    # penalty member: strictly negative coefficients
    assert np.all(fam[0][1] < 0)
    # cheapest facility member has an empty sum
    cheapest = int(np.argmin(inst.cost[:, jj]))
    assert np.all(fam[cheapest + 1][1] == 0.0)
    # the revenue term is folded into each constant, so the family max is the
    # customer's cost itself; it costs 0 at zero demand, so the other
    # customers' costs cancel
    rng = np.random.default_rng(0)
    d = rng.uniform(0, 80, size=4)
    d[jj] = d_k
    d0 = np.where(np.arange(4) == jj, 0.0, d)
    for _ in range(10):
        y = rng.integers(0, 2, size=3)
        np.testing.assert_allclose(_intercepts(inst, gaps[jj], y), [w @ y for _, w in fam],
                                   rtol=1e-12)
        best = max(c + w @ y for c, w in fam)
        assert best == pytest.approx(h(inst, y, d) - h(inst, y, d0), abs=1e-9)
