"""One workload in one process: set up, run the closed loop, check, report.

Started by ``run.py``.  After importing lctkit and generating its inputs
the worker prints ``ready``; with ``--setup-only`` it exits there.
Otherwise it runs one untimed warm-up round, then the workload as a
closed loop with a single caller, timing every operation with ``perf_counter``, checks every output it
kept, and prints one JSON line.  With ``--trace 1`` rounds alternate
between untraced and traced (see ``tracer.py``), then idle layers are
probed, and the JSON holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

import lctkit  # noqa: E402

if Path(lctkit.__file__).resolve().parent.parent != SRC:
    sys.exit(f"error: lctkit imported from {lctkit.__file__}, not from {SRC}")

from workloads import WORKLOADS  # noqa: E402


@dataclass
class Phase:
    times: list = field(default_factory=list)
    work: float = 0.0
    rounds: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)

    def p50_ms(self) -> float:
        return statistics.median(self.times) * 1e3


def closed_loop(workload, seconds: float, tracer=None) -> list[Phase]:
    """Repeat whole rounds until ``seconds`` have passed; one caller.

    With a tracer, odd rounds run traced and even rounds untraced, so both
    phases see the same machine state and the difference of their medians
    is the tracing overhead.  Returns ``[phase]`` or ``[untraced, traced]``.
    """
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    i = 0
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and i % 2 == 1
        phase = phases[traced]
        keep = i == 0 or workload.check_every_round
        if traced:
            tracer.install()
        try:
            for op in workload.round(i):
                try:
                    if traced:
                        tracer.current_op = len(phase.times)
                        t0 = perf_counter()
                        out = tracer.call("op", op.run)
                        t1 = perf_counter()
                    else:
                        t0 = perf_counter()
                        out = op.run()
                        t1 = perf_counter()
                except Exception as exc:  # an op that raises is a failed op
                    print(f"op {op.kind} failed: {exc!r}", file=sys.stderr)
                    phase.failed += 1
                    continue
                phase.times.append(t1 - t0)
                phase.work += op.work
                if keep:
                    phase.outputs.append((op, out))
        finally:
            if traced:
                tracer.uninstall()
        i += 1
        phase.rounds += 1
        if perf_counter() >= deadline and i >= len(phases):
            return phases


def check_outputs(workload, phases) -> list[str]:
    problems = []
    for phase in phases:
        for op, out in phase.outputs:
            problems += workload.check(op, out)
    try:
        problems += workload.final_checks()
    except Exception as exc:  # the program raised on a check's own inputs
        problems.append(f"final check raised {exc!r}")
    return problems


def end_to_end(phase: Phase) -> dict:
    times = sorted(phase.times)
    p99 = statistics.quantiles(times, n=100, method="inclusive")[98] if len(times) > 1 else times[0]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        "op_ms_p50": {"value": phase.p50_ms(), "unit": "ms"},
        "op_ms_p99": {"value": p99 * 1e3, "unit": "ms"},
        "work_per_s": {"value": phase.work / sum(times), "unit": "1/s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # One untimed round first: the first call of each kind pays for cold
    # caches and page faults that later calls do not.
    for op in workload.round(0):
        try:
            op.run()
        except Exception:  # counted as failed when the timed loop repeats it
            pass

    if not args.trace:
        phases = closed_loop(workload, args.seconds)
        metrics = end_to_end(phases[0])
    else:
        import layers

        tracer = layers.traced_tracer()
        phases = closed_loop(workload, args.seconds, tracer)
        tracer.install()
        try:
            volume_metrics = layers.probe_idle_layers(tracer, workload, args.seed)
        finally:
            tracer.uninstall()
        metrics, probed = layers.per_layer(tracer, *phases, volume_metrics)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        layers.print_table(metrics, probed)

    problems = check_outputs(workload, phases)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(p.times) + p.failed for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
