from pathlib import Path


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
