"""Run two alternating sets of benchmark runs and compare them.

    python3 bench/steady.py

For each workload, each set makes ten runs with seeds 101-110.  Run i of
set A and run i of set B use the same seed and follow each other, with the
order swapped on every other pair, so a difference between the sets is the
machine's and not the instances'.  For each end-to-end metric the script
prints each set's median and quartiles, the spread (q3 - q1) / median, and
how far set B's median lies from set A's in the metric's worse direction,
each against the bound in BENCHMARK.json.  It exits with 1 if any spread
or shift exceeds its bound, or if an op failed.  Raw results go to
``.bench_runs/steady-<workload>.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10
FIRST_SEED = 101


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            seed = FIRST_SEED + i
            for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
                sets[name].append(one_run(workload, seed, bench["run_seconds"]))
                r = sets[name][-1]
                print(f"{workload} set {name} seed {seed}: attempted {r['attempted']} "
                      f"failed {r['failed']} correct {r['correct']}", flush=True)
        out = ROOT / ".bench_runs" / f"steady-{workload}.json"
        out.write_text(json.dumps(sets, indent=1) + "\n")

        print(f"\n{workload}: {RUNS} runs per set")
        print(f"{'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'shift':>9}{'bound':>7}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            med = {}
            for s, runs in sets.items():
                q1, med[s], q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in runs], n=4)
                spread = (q3 - q1) / med[s]
                shift = sign * (med[s] - med["A"]) / med["A"]
                if spread > bound or shift > bound:
                    ok = False
                print(f"{name:<14}{s:>4}{med[s]:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{spread:>9.3f}{shift:>9.3f}{bound:>7.2f}")
        runs = sets["A"] + sets["B"]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        print(f"failed share {shares}, all correct {correct}")
        print(flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
