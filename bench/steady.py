"""Steadiness check: run the workload set repeatedly on the same code and
print each end-to-end metric's spread next to its bound.

    python3 bench/steady.py --runs 10 --sets 2

Each set runs every workload of BENCHMARK.json once per seed (seeds
1 .. runs) through ``bench/run.py --trace 0``.  For every set the spread
of a metric is the distance between the first and third quartile of its
per-run values (``statistics.quantiles(n=4)``) over their median.  The
drift is the largest gap, in either direction, between a later set's
median and the first set's, as a share of the first.  For every
end-to-end metric, setup_s included, a spread above a third of the bound
is flagged as wide, and a spread or drift above the bound fails.  Raw
results go to .bench_work/steady-<time>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_sets(workloads, runs, sets, seconds, log: Path) -> list:
    rows = []
    with open(log, "w", encoding="utf-8") as fh:
        for s in range(sets):
            for name in workloads:
                for seed in range(1, runs + 1):
                    cmd = [sys.executable, str(BENCH_DIR / "run.py"),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
                    t0 = time.perf_counter()
                    proc = subprocess.run(cmd, capture_output=True, text=True)
                    took = time.perf_counter() - t0
                    if proc.returncode != 0:
                        sys.exit(f"{name} seed {seed} exited "
                                 f"{proc.returncode}:\n{proc.stderr}")
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    row = {"set": s, "workload": name, "seed": seed,
                           "wall_s": took, **result}
                    rows.append(row)
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    print(f"set {s} {name} seed {seed}: {took:.1f} s, "
                          f"correct={result['correct']}", file=sys.stderr)
    return rows


def report(rows, spec: dict) -> bool:
    """Print the table; True when every metric is within its bound."""
    ok = True
    sets = sorted({r["set"] for r in rows})
    print(f"{'workload':20} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(s):>10} {'spread' + str(s):>8}"
                     for s in sets)
          + f" {'drift':>7}  verdict")
    for name in sorted({r["workload"] for r in rows}):
        for m in spec["end_to_end"]:
            per_set = [[r["metrics"][m["name"]]["value"] for r in rows
                        if r["workload"] == name and r["set"] == s]
                       for s in sets]
            meds = [statistics.median(v) for v in per_set]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in per_set]
            drift = max(abs(x - meds[0]) / meds[0] for x in meds)
            bound = m["bound"]
            verdict = "steady"
            if max(spreads) > bound / 3:
                verdict = "wide"
            if max(spreads) > bound or drift > bound:
                verdict, ok = "FAIL", False
            print(f"{name:20} {m['name']:12} {bound:6.3f} "
                  + " ".join(f"{md:10.5g} {sp:8.4f}"
                             for md, sp in zip(meds, spreads))
                  + f" {drift:7.4f}  {verdict}")
    n_bad = sum(1 for r in rows if not r["correct"] or r["failed"])
    print(f"{len(rows)} runs, {n_bad} with failed operations")
    return ok and n_bad == 0


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args(argv)
    log = Path.cwd() / ".bench_work" / f"steady-{int(time.time())}.jsonl"
    log.parent.mkdir(exist_ok=True)
    rows = run_sets([w["name"] for w in spec["workloads"]], args.runs,
                    args.sets, spec["run_seconds"], log)
    print(f"results in {log}")
    return 0 if report(rows, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
