"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload scan-box --seed 1 --seconds 20 --trace 0

The workload runs in a child process (``worker.py``) as one closed loop
with a single caller.  This parent only starts processes and measures
``setup_s``: the wall time from spawning a child to the moment it has
imported lctkit and generated its inputs.  Set-up is paid by the measuring
child and by ``SETUP_PROBES`` children that exit right after it, and the
median of those times is reported.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``).
The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("scan-box", "exact-queries", "oracle-modulus", "oracle-family")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    # LCT_THREADS would cap the two-worker invariance check to one worker.
    env.pop("LCT_THREADS", None)
    return env


def _run_child(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker, time spawn-to-ready, and return (setup_s, later lines).

    Raises RuntimeError if the worker fails or outlives the deadline.
    """
    cmd = [sys.executable, str(WORKER), *argv]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker {argv} timed out")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {argv} exited with code {proc.returncode}")
    return setup_s, rest.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lctkit" / "__init__.py").is_file():
        print(f"error: no lctkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_run_child([*common, "--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        setup_s, lines = _run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("error: the worker printed no result", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
