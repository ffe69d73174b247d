from pathlib import Path

import ddrloc.benchmarks
import ddrloc.solvers
from conftest import random_problem


def test_tracer_lookup_names_resolve_and_restore(monkeypatch):
    # bench/tracing.py wraps ddrloc functions under the names their callers
    # look them up by; a rename under src/ must fail here, not in --trace 1.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    before = [(module, attr, getattr(module, attr, None))
              for module, attr, *_ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, original in before:
            assert getattr(module, attr) is not original
    finally:
        tracer.remove()
    for module, attr, original in before:
        assert getattr(module, attr) is original


def test_reference_check_exact_at_row_sum_099(monkeypatch):
    # the exact-milp check of the benchmark, on instances of its size in the
    # strongly coupled regime
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import reference

    for seed in (1000, 1001):
        inst, model = random_problem(seed, 4, 10, support_size=12, lambda_row_sum=0.99)
        sol, y, _ = ddrloc.solvers.exact_solve(inst, model)
        record = (sol.status, float(sol.objective), float(sol.bound), tuple(int(v) for v in y))
        assert reference.check_exact(inst, model, record) == []


def test_traced_train_sp_opens_second_stage_costs_spans(monkeypatch):
    # transport.second_stage_costs_calls and _s measure the batched kernel
    # only while train_sp reaches it through the wrapped lookup name.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    inst, model = random_problem(5, 4, 5)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        ddrloc.benchmarks.train_sp(inst, model, 10, seed=1)
    finally:
        tracer.remove()
    names = [rec[3] for rec in tracer.spans]
    assert names[0] == "benchmarks.train_sp"
    assert names.count("transport.second_stage_costs") >= 1
    assert all(rec[1] == 0 for rec in tracer.spans[1:])
