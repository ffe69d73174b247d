import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_plans, random_problem, toy_instance, toy_model
from ddrloc.instance import (apply_robustness_level, arithmetic_support,
                             big_lambda_matrix, lambda_from_distance,
                             lambda_rho_means, load_problem, moment_windows,
                             plans_under_budget, problem_from_dict,
                             problem_to_dict, save_problem, validate)


def two_facility_model():
    inst = toy_instance(cost=[[1.0], [2.0]], capacity=[10, 10],
                        penalty=[30.0], revenue=[0.0])
    return inst, toy_model(inst, bar_mu=[10.0], bar_sigma=[10.0],
                           lambda_mu=[[0.3, 0.2]], lambda_sigma=[[0.3, 0.2]])


def mean_and_variance(model, ys):
    """mu and sigma^2 per (plan, customer), read off the windows of a model
    whose windows are pinned (eps_mu = 0, unit second-moment factors)."""
    mu, _, s, _ = moment_windows(model, ys)
    return mu, s - mu * mu


def test_mean_of_substitution():
    _, model = two_facility_model()
    mu, _ = mean_and_variance(model, [[0, 0], [1, 0], [1, 1]])
    assert mu[0, 0] == 10.0
    assert mu[1, 0] == pytest.approx(13.0)
    assert mu[2, 0] == pytest.approx(15.0)


def test_variance_of_substitution():
    _, model = two_facility_model()
    _, var = mean_and_variance(model, [[0, 0], [1, 1]])
    assert var[0, 0] == 100.0
    assert var[1, 0] == pytest.approx(50.0)


def test_variance_constant_without_dependence():
    inst = toy_instance(cost=[[1.0], [2.0]], capacity=[10, 10],
                        penalty=[30.0], revenue=[0.0])
    model = toy_model(inst, bar_mu=[10.0], bar_sigma=[10.0])
    _, var = mean_and_variance(model, [[0, 0], [1, 0], [0, 1], [1, 1]])
    assert var[:, 0].tolist() == [100.0] * 4


def test_second_moment_window_hand_value():
    # mu = 13, sigma^2 = 50 at y = (1, 1) with window factors 0.8 / 1.2
    inst, _ = two_facility_model()
    model = toy_model(inst, bar_mu=[10.0], bar_sigma=[10.0],
                      lambda_mu=[[0.3, 0.0]], lambda_sigma=[[0.3, 0.2]],
                      eps_lo=[0.8], eps_hi=[1.2])
    _, _, lo, hi = moment_windows(model, [1, 1])
    assert lo[0, 0] == pytest.approx(175.2)
    assert hi[0, 0] == pytest.approx(262.8)


def test_second_moment_window_degenerate_and_zero():
    inst, model = two_facility_model()
    _, _, lo, hi = moment_windows(model, [0, 0])
    assert lo[0, 0] == hi[0, 0] == pytest.approx(200.0)   # sigma^2 + mu^2 at the base point
    model0 = model.replace(eps_sigma_lo=np.array([0.0]))
    assert moment_windows(model0, [0, 0])[2][0, 0] == 0.0


def test_moment_windows_mean_radius_and_shapes():
    inst, model = two_facility_model()
    wide = model.replace(eps_mu=np.array([2.5]))
    m_lo, m_hi, s_lo, s_hi = moment_windows(wide, [[0, 0], [1, 0], [1, 1]])
    assert all(w.shape == (3, 1) for w in (m_lo, m_hi, s_lo, s_hi))
    np.testing.assert_allclose(m_lo[:, 0], [7.5, 10.5, 12.5])
    np.testing.assert_allclose(m_hi[:, 0], [12.5, 15.5, 17.5])
    np.testing.assert_array_equal(s_lo, s_hi)       # unit second-moment factors


def test_big_lambda_hand_values():
    inst, model = two_facility_model()
    # -100*0.3 + 100*(2*0.3 + 0.09) = 39
    assert big_lambda_matrix(model)[0, 0] == pytest.approx(39.0)
    m0 = toy_model(inst, bar_mu=[10.0], bar_sigma=[10.0])
    assert big_lambda_matrix(m0)[0, 0] == 0.0
    m2 = toy_model(inst, bar_mu=[3.0], bar_sigma=[2.0],
                   lambda_sigma=[[0.5, 0.0]])
    assert big_lambda_matrix(m2)[0, 0] == pytest.approx(-2.0)


def test_big_lambda_matches_unit_vector_expansion():
    _, model = random_problem(5, 4, 6)
    lam = big_lambda_matrix(model)
    s = moment_windows(model, np.vstack([np.zeros(4), np.eye(4)]))[3]
    for i in range(4):
        np.testing.assert_allclose(lam[:, i], s[1 + i] - s[0], rtol=0, atol=1e-9)


def test_lambda_from_distance_hand_values():
    inst = toy_instance(cost=[[5.0]], capacity=[1.0], penalty=[10.0], revenue=[1.0])
    lam_mu, lam_sigma = lambda_from_distance(inst, target_row_sum=0.5)
    assert lam_mu[0, 0] == pytest.approx(0.5)
    inst2 = toy_instance(cost=[[0.0], [25.0]], capacity=[1, 1],
                         penalty=[50.0], revenue=[1.0])
    lam_mu, _ = lambda_from_distance(inst2, decay_scale=25.0, target_row_sum=0.5)
    assert lam_mu[0] == pytest.approx([0.36552928, 0.13447071], abs=1e-6)
    assert lam_mu.sum(axis=1) == pytest.approx(0.5, abs=1e-12)


def test_lambda_from_distance_rejects_bad_target():
    inst = toy_instance(cost=[[5.0]], capacity=[1.0], penalty=[10.0], revenue=[1.0])
    with pytest.raises(ValueError):
        lambda_from_distance(inst, target_row_sum=1.0)


def test_lambda_rho_means():
    inst = toy_instance(cost=[[3.0], [7.0]], capacity=[1, 1],
                        penalty=[10.0], revenue=[1.0])
    lam_mu, lam_sigma = lambda_rho_means(inst, 1)
    assert lam_mu[0].tolist() == [1.0, 0.0]
    lam_mu, lam_sigma = lambda_rho_means(inst, 2)
    assert lam_mu[0] == pytest.approx([0.5, 0.5])
    # sigma rows shrink strictly below 1 so variance stays positive
    assert lam_sigma[0].sum() < 1.0
    with pytest.raises(ValueError):
        lambda_rho_means(inst, 3)


def test_lambda_rho_means_tie_prefers_smaller_id():
    inst = toy_instance(cost=[[5.0], [5.0], [9.0]], capacity=[1, 1, 1],
                        penalty=[10.0], revenue=[1.0])
    lam_mu, _ = lambda_rho_means(inst, 1)
    assert lam_mu[0].tolist() == [1.0, 0.0, 0.0]


def test_apply_robustness_level():
    _, model = two_facility_model()
    m = apply_robustness_level(model, 0.0)
    assert m.eps_mu.tolist() == [0.0]
    assert m.eps_sigma_lo.tolist() == [1.0]
    assert m.eps_sigma_hi.tolist() == [1.0]
    m = apply_robustness_level(model, 0.2)
    assert m.eps_sigma_lo[0] == pytest.approx(0.8)
    assert m.eps_sigma_hi[0] == pytest.approx(1.2)
    assert m.eps_mu[0] == pytest.approx(2.0)
    assert apply_robustness_level(model, 1.0).eps_sigma_lo[0] == 0.0
    with pytest.raises(ValueError):
        apply_robustness_level(model, 1.5)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_moment_monotonicity(seed):
    _, model = random_problem(seed % 1000, 4, 5)
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=4)
    for i in range(4):
        if y[i] == 1:
            continue
        y2 = y.copy()
        y2[i] = 1
        mu, var = mean_and_variance(model, [y, y2])
        assert np.all(mu[1] >= mu[0] - 1e-12)
        assert np.all(var[1] <= var[0] + 1e-12)


def test_validate_clean_default():
    inst, model = random_problem(0, 4, 6)
    assert validate(inst, model) == []


def test_validate_flags_penalty_and_row_sum():
    inst = toy_instance(cost=[[5.0]], capacity=[1.0], penalty=[5.0], revenue=[1.0])
    msgs = validate(inst)
    assert any("penalty" in m for m in msgs)
    inst2 = toy_instance(cost=[[1.0]], capacity=[1.0], penalty=[5.0], revenue=[1.0])
    model = toy_model(inst2, bar_mu=[10.0], bar_sigma=[5.0],
                      lambda_sigma=[[1.0]])
    assert any("lambda" in m or "variance" in m for m in validate(inst2, model))


def test_validate_flags_negative_support():
    inst = toy_instance(cost=[[1.0]], capacity=[1.0], penalty=[5.0], revenue=[1.0])
    model = toy_model(inst, bar_mu=[10.0], bar_sigma=[5.0], support=(-1.0, 100.0, 10))
    assert validate(inst, model) == ["support points must be nonnegative"]
    assert validate(inst, toy_model(inst, [10.0], [5.0], support=(0.0, 100.0, 10))) == []
    assert validate(inst, model.replace(support=[[1.0, 2.0, 3.0]])) == [
        "demand model: support must be one-dimensional"]


def test_validate_flags_non_finite_arrays():
    inst = toy_instance(cost=[[1.0]], capacity=[1.0], penalty=[5.0], revenue=[1.0])
    model = toy_model(inst, bar_mu=[10.0], bar_sigma=[5.0])
    assert validate(dataclasses.replace(inst, cost=[[np.nan]]), model) == [
        "cost has a non-finite entry"]
    assert validate(dataclasses.replace(inst, capacity=[np.inf]), model) == [
        "capacity has a non-finite entry"]
    # the model's other checks are skipped, as for a wrong shape: they would
    # meet inf - inf in the support's spacing
    assert validate(inst, model.replace(support=[1.0, 2.0, np.inf],
                                        eps_sigma_lo=[-np.inf])) == [
        "demand model: support has a non-finite entry",
        "demand model: eps_sigma_lo has a non-finite entry"]
    assert validate(inst, model.replace(lambda_sigma=[[np.nan]])) == [
        "demand model: lambda_sigma has a non-finite entry"]


def test_plans_under_budget_rejects_negative_budget():
    from ddrloc.benchmarks import train_sp
    from ddrloc.solvers import enumerate_oracle

    assert all_plans(2, 0).tolist() == [[0, 0]]
    # integer matrices in lexicographic order, the budget filtering rows
    assert all_plans(2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert all_plans(3, 1).tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        plans_under_budget(2, -1, 4)      # at the call, before any next()
    # and so do the enumerating solvers that read the budget through it
    inst, model = random_problem(12, 3, 4, support_size=7)
    for solve in (lambda: enumerate_oracle(inst, model, budget=-1),
                  lambda: train_sp(inst, model, 5, seed=0, budget=-1)):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            solve()


def test_plans_under_budget_chunks_concatenate_to_the_full_matrix():
    for n in (1, 4, 5, 10):
        for budget in (None, 0, 2, 7):
            full = [p for p in itertools.product((0, 1), repeat=n)
                    if budget is None or sum(p) <= budget]
            for chunk in (1, 3, 7, 100, 2 ** n, 2 ** n + 5):
                parts = list(plans_under_budget(n, budget, chunk))
                # every chunk but the last is full
                assert all(len(p) == chunk for p in parts[:-1])
                assert 0 < len(parts[-1]) <= chunk
                assert all(p.dtype.kind == "i" for p in parts)
                assert np.concatenate(parts).tolist() == [list(p) for p in full]
    # a small budget walks the plans, not the 2^40 codes
    parts = list(plans_under_budget(40, 1, 1024))
    assert len(parts) == 1
    assert parts[0].tolist() == [[0] * 40] + np.eye(40, dtype=int)[::-1].tolist()


def test_unknown_customer_id():
    # Customers are known by their ids, not their positions: validate names
    # the customer it rejects by id, and a problem document whose customer
    # has no id, or one that is not an integer, does not load.
    inst, model = two_facility_model()
    inst = dataclasses.replace(inst, customer_ids=(99,), revenue=np.array([-1.0]))
    model = model.replace(lambda_sigma=np.array([[0.6, 0.4]]))
    assert validate(inst, model) == [
        "customer 99: revenue must be nonnegative",
        "customer 99: variance dependency row sums to 1, must stay strictly below 1"]
    doc = problem_to_dict(*random_problem(3, 2, 3))
    del doc["customers"][1]["id"]
    with pytest.raises(ValueError, match="problem lacks the key 'id'"):
        problem_from_dict(doc)
    for bad, msg in (("abc", "invalid literal for int"), (None, "wrong type")):
        doc["customers"][1]["id"] = bad
        with pytest.raises(ValueError, match=msg):
            problem_from_dict(doc)


def test_serialization_round_trip(tmp_path):
    inst, model = random_problem(3, 4, 6, support_size=12, kappa=0.3)
    p = tmp_path / "problem.json"
    save_problem(str(p), inst, model)
    inst2, model2 = load_problem(str(p))
    assert inst2.facility_ids == inst.facility_ids
    np.testing.assert_array_equal(inst2.cost, inst.cost)
    np.testing.assert_array_equal(inst2.open_cost, inst.open_cost)
    np.testing.assert_array_equal(model2.bar_mu, model.bar_mu)
    np.testing.assert_array_equal(model2.lambda_sigma, model.lambda_sigma)
    np.testing.assert_array_equal(model2.support, model.support)
    np.testing.assert_array_equal(model2.eps_mu, model.eps_mu)
    # the file is valid structured text with the agreed key names
    doc = json.loads(p.read_text())
    assert {"id", "x", "y", "f", "C"} <= set(doc["facilities"][0])
    assert {"id", "x", "y", "p", "r"} <= set(doc["customers"][0])


def test_arithmetic_support_pins_endpoints():
    d = arithmetic_support(1.0, 100.0, 100)
    assert d[0] == 1.0 and d[-1] == 100.0 and len(d) == 100
    assert np.all(np.diff(d) > 0)
    with pytest.raises(ValueError):
        arithmetic_support(1.0, 2.0, 1)
