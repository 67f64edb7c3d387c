"""Per-layer metrics of a traced run.

The layers are lctkit's modules: ``fano``, ``volume``, ``lct`` (with
``extrational``), ``bergman`` and ``cli``.  Metrics come from the spans of
the workload's own operations.  A layer the workload never calls is
probed with a small fixed input, so that every traced run reports
every metric; ``print_table`` marks those values as probed.  The volume
metrics are defined on probes in every workload: each of the workload's
sampled potentials on fixed 2^17-point chunks.
"""

from __future__ import annotations

import statistics

import numpy as np

import refs
from lctkit import bergman, cli, fano, lct, volume
from tracer import Tracer
from workloads import SURVIVORS, cli_call

PROBE = -2  # op id of probe spans
CHUNK = 2**17
PROBE_CHUNKS = 2
PROBE_REPEATS = 5


def traced_tracer() -> Tracer:
    tracer = Tracer()
    tracer.patch(
        fano, "scan",
        lambda r: {"examined": r.examined, "survivors": r.prefilter_survivors, "entries": len(r.entries)},
    )
    tracer.patch(fano, "certify", lambda c: {"monomials": c.monomial_count})
    for attr in ("parse_spec", "lct_monomial", "lct_from_resolution", "arnold_multiplicity"):
        tracer.patch(lct, attr)
    for attr in ("build_approx", "eval_psi_m", "eval_tail_bound"):
        tracer.patch(bergman, attr)
    for attr in ("potential_from_spec", "fit_exponent", "estimate_sublevel_volume",
                 "semicontinuity_experiment"):
        tracer.patch(volume, attr)
    tracer.patch(cli, "run")
    return tracer


def _chunk_coords(potential, seed: int) -> np.ndarray:
    """One chunk of area-uniform polydisk points, laid out as the sampler does."""
    rng = np.random.default_rng(seed)
    n = potential.dimension
    rad = np.asarray(potential.radius) * np.sqrt(rng.random((CHUNK, n)))
    ang = 2.0 * np.pi * rng.random((CHUNK, n))
    coords = np.empty((CHUNK, 2 * n))
    coords[:, 0::2] = rad * np.cos(ang)
    coords[:, 1::2] = rad * np.sin(ang)
    return coords


def _span_duration(tracer: Tracer, thunk) -> float:
    """Run thunk and return the duration of the first span it opened."""
    first = len(tracer.start)
    thunk()
    return tracer.duration(first)


def _probe_volume(tracer: Tracer, potentials, seed: int) -> dict:
    """Per potential, medians over PROBE_REPEATS back-to-back pairs, so that
    each difference is taken within one machine state."""
    evaluator, sample, count_fit = [], [], []
    samples = PROBE_CHUNKS * CHUNK
    for p in potentials:
        coords = _chunk_coords(p, seed)
        ev, est, extra = [], [], []
        for _ in range(PROBE_REPEATS):
            ev.append(_span_duration(tracer, lambda: tracer.call("volume.evaluator", p.evaluator, coords)))
            one = _span_duration(tracer, lambda: volume.estimate_sublevel_volume(p, 0.01, samples, seed))
            fit = _span_duration(tracer, lambda: volume.fit_exponent(p, samples=samples, seed=seed))
            est.append(one)
            extra.append(fit - one)
        evaluator.append(statistics.median(ev))
        sample.append(statistics.median(est) / PROBE_CHUNKS - evaluator[-1])
        count_fit.append(statistics.median(extra))
    return {
        "volume.evaluator_ms_per_chunk": statistics.mean(evaluator) * 1e3,
        "volume.sample_ms_per_chunk": statistics.mean(sample) * 1e3,
        "volume.count_fit_ms": statistics.mean(count_fit) * 1e3,
    }


def probe_idle_layers(tracer: Tracer, workload, seed: int) -> dict:
    """Probe each layer that the workload's traced ops never called, and
    the volume layer on the workload's potentials; returns the volume metrics."""
    tracer.current_op = PROBE
    seen = {tracer.names[n] for n in set(tracer.name)}

    def need(*names):
        return not all(n in seen for n in names)

    specs = sorted(refs.ADE_SPECS.values())
    if need("fano.scan"):
        for _ in range(3):
            fano.scan(fano.ScanConfig(max_a3=64, min_a0=3))
    if need("fano.certify"):
        for _ in range(PROBE_REPEATS):
            for a, d in SURVIVORS:
                fano.certify(fano.WeightSystem(a, d))
    if need("lct.parse_spec", "lct.lct_monomial", "lct.arnold_multiplicity"):
        for _ in range(PROBE_REPEATS):
            for text in specs:
                lct.arnold_multiplicity(lct.lct_monomial(lct.parse_spec(text)))
    if need("lct.lct_from_resolution"):
        doc = {"divisors": [{"a": a, "b": b, "meets_k": True} for a, b in ((0, 2), (1, 3), (4, 9), (2, 5))]}
        for _ in range(PROBE_REPEATS * 10):
            lct.lct_from_resolution(lct.ResolutionData.from_json(doc))
    if need("bergman.build_approx", "bergman.eval_psi_m"):
        for _ in range(PROBE_REPEATS):
            for m in range(1, 9):
                ap = bergman.build_approx(bergman.RadialWeight("3/4"), m)
                bergman.eval_psi_m(ap, 0.5)
    if need("cli.run"):
        for text in specs:
            cli_call(["lct", "--spec", text])
    return _probe_volume(tracer, workload.potentials(), seed)


def per_layer(tracer: Tracer, untraced, traced, volume_metrics: dict) -> tuple[dict, set]:
    """Metrics by name, and the names of the metrics taken from probes."""
    workload_ops = set(range(len(traced.times)))
    kids = tracer.children()
    probed_spans = set()

    def spans(name):
        """Spans of the workload's ops, else the top-level probe calls."""
        found = tracer.spans(name, workload_ops)
        if not found:
            probed_spans.add(name)
            found = [i for i in tracer.spans(name, {PROBE}) if tracer.parent[i] == -1]
        return found

    def med_us(name):
        return statistics.median(tracer.duration(i) for i in spans(name)) * 1e6

    scans = spans("fano.scan")
    certs = spans("fano.certify")
    certify_ids = set(tracer.spans("fano.certify"))
    prefilter_s = [
        tracer.duration(i) - sum(tracer.duration(k) for k in kids.get(i, ()) if k in certify_ids)
        for i in scans
    ]
    info = tracer.info[scans[0]]
    rounds = PROBE_REPEATS if "fano.certify" in probed_spans else traced.rounds
    cli_self = [tracer.self_time(i, kids) for i in spans("cli.run")]

    # metric: (value, unit, span it is taken from)
    values = {
        "fano.scan_ms": (statistics.median(tracer.duration(i) for i in scans) * 1e3, "ms", "fano.scan"),
        "fano.prefilter_ms": (statistics.median(prefilter_s) * 1e3, "ms", "fano.scan"),
        "fano.examined": (info["examined"], "count", "fano.scan"),
        "fano.prefilter_survivors": (info["survivors"], "count", "fano.scan"),
        "fano.survivor_yield": (info["entries"] / info["survivors"], "ratio", "fano.scan"),
        "fano.certify_us_p50": (med_us("fano.certify"), "us", "fano.certify"),
        "fano.certify_calls": (len(certs) / rounds, "count", "fano.certify"),
        "fano.monomials_per_certify": (
            statistics.mean(tracer.info[i]["monomials"] for i in certs), "count", "fano.certify"),
        "lct.parse_spec_us_p50": (med_us("lct.parse_spec"), "us", "lct.parse_spec"),
        "lct.lct_monomial_us_p50": (med_us("lct.lct_monomial"), "us", "lct.lct_monomial"),
        "lct.lct_from_resolution_us_p50": (
            med_us("lct.lct_from_resolution"), "us", "lct.lct_from_resolution"),
        "extrational.arnold_multiplicity_us_p50": (
            med_us("lct.arnold_multiplicity"), "us", "lct.arnold_multiplicity"),
        "bergman.build_approx_us_p50": (med_us("bergman.build_approx"), "us", "bergman.build_approx"),
        "bergman.eval_psi_m_us_p50": (med_us("bergman.eval_psi_m"), "us", "bergman.eval_psi_m"),
        **{name: (v, "ms", "volume") for name, v in volume_metrics.items()},
        "cli.overhead_ms": (statistics.median(cli_self) * 1e3, "ms", "cli.run"),
        "trace.overhead_ms": (traced.p50_ms() - untraced.p50_ms(), "ms", "op"),
    }
    probed_spans.add("volume")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()}
    return metrics, {name for name, (_, _, span) in values.items() if span in probed_spans}


def print_table(metrics: dict, probed: set) -> None:
    print(f"{'per-layer metric':<40} {'value':>14}  {'unit':<6} source")
    for name, m in metrics.items():
        source = "probe" if name in probed else "workload"
        print(f"{name:<40} {m['value']:>14.4f}  {m['unit']:<6} {source}")
