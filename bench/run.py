"""ddrloc benchmark: one workload, one seed, one timed window.

    python3 bench/run.py --workload exact-milp --seed 1 --seconds 30 --trace 0

One process calls the workload's public ddrloc function in a closed loop
with one caller, over whole rounds of the run's instances, until the
window is spent.  Then it checks every output against the reference in
``reference.py`` and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Spans of a traced run go to
``.bench_runs/trace-<workload>-seed<seed>.jsonl``.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads: pin them first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
SETUP_SAMPLES = 10           # fresh set-ups timed, two before the window and after each round
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
                    "peak_rss_mb": "MB"}


@dataclass
class Op:
    instance: int
    seconds: float
    record: object          # comparable output, None when the call raised
    error: str | None
    traced: bool


def set_up(name: str, seed: int, tmp: str):
    """Import ddrloc, generate the run's inputs and warm up; the part setup_s times."""
    sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    workloads.warm_up(workload, tmp)
    return workload, inputs


def setup_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return elapsed


def timed_ops(workload, inputs, seconds: float, tmp: str, tracer=None, between=None):
    """Whole rounds over ``inputs`` until the window is spent; at least two.

    With a tracer, every second round is traced.  ``between`` runs before
    the first round and after each round, outside the window.  The window
    ends at the round boundary nearest to ``seconds``.
    """
    ops: list[Op] = []
    elapsed = 0.0
    rounds = 0
    while True:
        if between is not None:
            between()
        if rounds >= 2 and elapsed + 0.5 * elapsed / rounds >= seconds:
            return ops, elapsed
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            for idx, (cfg, instance, model) in enumerate(inputs):
                t = time.perf_counter()
                try:
                    if traced:
                        tracer.op = len(ops)
                        out = tracer.span(workload.root_span, workload.call,
                                          cfg, instance, model, tmp)
                    else:
                        out = workload.call(cfg, instance, model, tmp)
                    dt = time.perf_counter() - t
                    ops.append(Op(idx, dt, workload.keep(out), None, traced))
                except Exception as exc:     # an op that raises counts as failed
                    ops.append(Op(idx, time.perf_counter() - t, None, repr(exc), traced))
        finally:
            elapsed += time.perf_counter() - start
            if traced:
                tracer.remove()
        rounds += 1


def count_wrong(workload, inputs, ops: list[Op]) -> int:
    """Ops whose output differs from another op on the same instance, or
    whose instance's output the reference rejects."""
    first = {}
    for op in ops:
        if op.record is not None:
            first.setdefault(op.instance, op.record)
    rejected = set()
    for idx, record in first.items():
        problems = workload.check(*inputs[idx], record)
        for msg in problems:
            print(f"check {workload.name} instance {idx}: {msg}", file=sys.stderr)
        if problems:
            rejected.add(idx)
    wrong = 0
    for op in ops:
        if op.record is None:
            continue
        if op.instance in rejected or op.record != first[op.instance]:
            wrong += 1
    return wrong


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("exact-milp", "oracle-windows", "compare-pinned"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (times setup_s)")
    args = p.parse_args(argv)
    if not (SRC / "ddrloc" / "__init__.py").is_file():
        sys.exit(f"ddrloc sources not found under {SRC}")

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT, prefix="tmp-")
    try:
        workload, inputs = set_up(args.workload, args.seed, tmp)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            ops, elapsed = timed_ops(workload, inputs, args.seconds, tmp, tracer)
            tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            # Set-up is timed throughout the run, so that its median averages
            # over the machine's drift as the ops' median does.  The cap keeps
            # a run of fast (or instantly failing) rounds from never ending.
            setup = []

            def time_setups():
                for _ in range(min(2, SETUP_SAMPLES - len(setup))):
                    setup.append(setup_seconds(args))

            ops, elapsed = timed_ops(workload, inputs, args.seconds, tmp,
                                     between=time_setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wrong = count_wrong(workload, inputs, ops)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    errors = [op for op in ops if op.error is not None]
    for msg in sorted({op.error for op in errors}):
        n = sum(op.error == msg for op in errors)
        print(f"{n} ops raised {msg}", file=sys.stderr)
    done = [op for op in ops if op.error is None]
    # With no op left to time the metrics stay empty and the run is not correct.
    metrics = {}
    if args.trace:
        traced = [op.seconds for op in done if op.traced]
        plain = [op.seconds for op in done if not op.traced]
        if traced and plain:
            overhead = statistics.median(traced) - statistics.median(plain)
            metrics = tracing.layer_metrics(tracer.spans, len(traced), overhead)
        for name, m in metrics.items():
            print(f"{name:<38} {m['value']:>14.6g} {m['unit']}")
    elif done:
        values = {"setup_s": statistics.median(setup),
                  "ops_per_s": len(done) / elapsed,
                  "op_s.p50": statistics.median(op.seconds for op in done),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": wrong == 0 and bool(metrics), "attempted": len(ops),
                      "failed": len(errors) + wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
