"""Stability check: run every workload repeatedly and print each end-to-end
metric's median, quartiles and spread next to its bound.

    python3 perfbench/stability.py --runs 10
    python3 perfbench/stability.py --runs 10 --against perfbench/results/stability-A.json

Run i uses seed ``--first-seed + i``; the workload order alternates between
runs so that no workload always follows the same one.  The spread is the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  A metric counts as steady when
its spread is below a third of its bound; ``setup_s`` is exempt from the
spread rule.  With ``--against`` the medians are compared with an earlier
result file, and a metric whose median got worse by more than its bound
is flagged.  Results are saved under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results: dict, spec: dict) -> dict:
    summary = {}
    for workload, runs in results.items():
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / med, "bound": metric["bound"]}
        rows["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
        rows["correct"] = all(r["correct"] for r in runs)
        summary[workload] = rows
    return summary


def worse_by(metric: dict, old: float, new: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--against", type=Path, default=None, help="earlier result file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    results: dict[str, list] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names if i % 2 == 0 else reversed(names):
            results[name].append(run_once(name, args.first_seed + i, spec["run_seconds"]))
            print(f"run {i + 1}/{args.runs} {name} done", file=sys.stderr, flush=True)

    summary = summarize(results, spec)
    old = json.loads(args.against.read_text())["summary"] if args.against else {}
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload, rows in summary.items():
        print(f"\n{workload}: correct={rows['correct']} failed share={rows['failed_share']}")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, metric in metrics.items():
            row = rows[name]
            if name == "setup_s":
                verdict = "exempt"
            elif row["spread"] < row["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "within bound" if row["spread"] <= row["bound"] else "TOO WIDE"
            if workload in old:
                drift = worse_by(metric, old[workload][name]["median"], row["median"])
                verdict += f"; median {drift:+.1%} worse" + (" EXCEEDS BOUND" if drift > row["bound"] else "")
            print(f"  {name:<14} {row['median']:>14.6g} {row['q1']:>14.6g} {row['q3']:>14.6g} "
                  f"{row['spread']:>8.2%} {row['bound']:>6}  {verdict}")

    out = HERE / "results" / f"stability-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": results, "summary": summary}, indent=1))
    print(f"\nsaved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
