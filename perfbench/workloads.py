"""The four workloads: their inputs, their operations and their checks.

Every workload is a fixed list of operations (a round) that the worker
repeats until the run's time is up, so every run attempts whole rounds.
Inputs come from the run's seed only.  An operation returns the output
the checks read; ``work`` is the number of work items it completes
(weight systems in the box, Monte-Carlo samples, or exact queries).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import refs
from lctkit import bergman, cli, fano, lct, volume


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    work: float
    data: dict = field(default_factory=dict)


def cli_call(argv: list[str]) -> tuple[int, str]:
    """cli.run in-process with stdout captured; cli.run is looked up per call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


class Workload:
    name = ""
    check_every_round = True  # False when every round repeats the same inputs

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, output) -> list[str]:
        """Problems with one operation's output, checked against refs."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks that need extra program calls, run once after the loop."""
        return []

    def potentials(self) -> list:
        """Sampled potentials this workload evaluates (volume-layer probes)."""
        return [volume.potential_from_spec(lct.parse_spec("mono:2,1"))]


# ---------------------------------------------------------------------------
# scan-box


class ScanBox(Workload):
    """One weight-box scan per op through the CLI; inputs do not vary by seed."""

    name = "scan-box"
    MAX_WEIGHT, MIN_A0 = 128, 3
    BRUTE_FORCE_BOX = 16

    def __init__(self, seed: int):
        argv = ["fano-scan", "--max-weight", str(self.MAX_WEIGHT), "--min-a0", str(self.MIN_A0)]
        # The work is every system in the box, counted from its bounds.
        systems = math.comb(self.MAX_WEIGHT - self.MIN_A0 + 4, 4)
        self.ops = [Op("fano-scan", lambda: cli_call(argv), systems)]

    def round(self, i):
        return self.ops

    def check(self, op, output):
        code, text = output
        problems: list[str] = []
        _expect(problems, code == 0, f"fano-scan exited {code}")
        lines = text.strip().splitlines()
        _expect(
            problems,
            lines[:1] == ["a0,a1,a2,a3,d,fletcher,rho_num,rho_den,rho_float,verdict"],
            "unexpected CSV header",
        )
        certified = set()
        for line in lines[1:]:
            a0, a1, a2, a3, d, _, num, den, _, verdict = line.split(",")
            w, d = (int(a0), int(a1), int(a2), int(a3)), int(d)
            _expect(problems, d == sum(w) - 1, f"{w}: degree {d} is not k - 1")
            _expect(problems, Fraction(int(num), int(den)) == refs.rho(w, d), f"{w}: wrong rho")
            if verdict == fano.KE_CERTIFIED:
                certified.add((w, d))
        _expect(problems, certified == refs.CERTIFIED_B128, f"certified rows {sorted(certified)}")
        return problems

    def final_checks(self):
        b = self.BRUTE_FORCE_BOX
        brute = set()
        for a0 in range(1, b + 1):
            for a1 in range(a0, b + 1):
                for a2 in range(a1, b + 1):
                    for a3 in range(a2, b + 1):
                        w = fano.WeightSystem((a0, a1, a2, a3), a0 + a1 + a2 + a3 - 1)
                        if fano.fletcher_check(w).passes:
                            brute.add((w.a, w.d))
        report = fano.scan(fano.ScanConfig(max_a3=b))
        scanned = {(c.weights.a, c.weights.d) for c in report.entries}
        return [] if scanned == brute else [f"scan of a3 <= {b} disagrees with brute force"]


# ---------------------------------------------------------------------------
# exact-queries

# Fletcher-passing systems of the a3 <= 64 box at index 1, a0 >= 1.
SURVIVORS = (
    ((1, 1, 1, 1), 3), ((1, 1, 1, 2), 4), ((1, 1, 2, 3), 6), ((1, 2, 3, 5), 10),
    ((1, 3, 5, 7), 15), ((1, 3, 5, 8), 16), ((2, 3, 3, 5), 12), ((2, 3, 5, 9), 18),
    ((2, 5, 5, 9), 20), ((2, 7, 7, 13), 28), ((2, 9, 9, 17), 36), ((2, 11, 11, 21), 44),
    ((2, 13, 13, 25), 52), ((2, 15, 15, 29), 60), ((2, 17, 17, 33), 68),
    ((2, 19, 19, 37), 76), ((2, 21, 21, 41), 84), ((2, 23, 23, 45), 92),
    ((2, 25, 25, 49), 100), ((2, 27, 27, 53), 108), ((2, 29, 29, 57), 116),
    ((2, 31, 31, 61), 124), ((3, 3, 5, 5), 15), ((3, 5, 7, 11), 25), ((3, 5, 7, 14), 28),
    ((3, 5, 11, 18), 36), ((5, 14, 17, 21), 56), ((5, 19, 27, 31), 81),
    ((5, 19, 27, 50), 100), ((7, 11, 27, 37), 81), ((7, 11, 27, 44), 88),
    ((9, 15, 17, 20), 60), ((9, 15, 23, 23), 69), ((11, 29, 39, 49), 127),
    ((13, 23, 35, 57), 127),
    # the two certified systems of the a3 <= 128, a0 >= 3 box
    ((11, 49, 69, 128), 256), ((13, 35, 81, 128), 256),
)


def _random_leaf(rng: random.Random):
    n = rng.randint(1, 3)
    if rng.random() < 0.5:
        exps = [rng.randint(0, 6) for _ in range(n)]
        exps[rng.randrange(n)] = rng.randint(1, 6)
        return ("mono", tuple(exps))
    return ("diag", tuple(rng.randint(1, 9) for _ in range(n)))


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return _random_leaf(rng)
    tag = rng.choice(("dsum", "ssum"))
    return (tag, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


class ExactQueries(Workload):
    """A seeded, shuffled stream of exact library queries; no CLI, no numpy.

    The mix is fixed (``MIX``) so that the median lands among the many
    cheap spec/resolution queries and the 99th percentile inside the
    long-certificate class, for every seed.
    """

    name = "exact-queries"
    check_every_round = False
    MIX = {
        "spec": 1200,
        "resolution": 1000,
        "bergman": 600,
        "certify-survivor": 400,
        "certify-box": 600,
        "certify-long": 200,
    }
    LONG_MONOMIALS = (150, 300)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        make = {
            "spec": self._spec,
            "resolution": self._resolution,
            "bergman": self._bergman,
            "certify-survivor": lambda r: self._certify(*r.choice(SURVIVORS)),
            "certify-box": self._certify_box,
            "certify-long": self._certify_long,
        }
        ops = [make[kind](rng) for kind, n in self.MIX.items() for _ in range(n)]
        rng.shuffle(ops)
        self.ops = ops

    def round(self, i):
        return self.ops

    @staticmethod
    def _spec(rng):
        if rng.random() < 1 / 6:
            name = rng.choice(sorted(refs.ADE_SPECS))
            text, expected = refs.ADE_SPECS[name], refs.ADE_THRESHOLDS[name]
        else:
            tree = _random_tree(rng, 2)
            text, expected = refs.spec_text(tree), refs.spec_threshold(tree)

        def run():
            c = lct.lct_monomial(lct.parse_spec(text))
            return c, lct.arnold_multiplicity(c)

        return Op("spec", run, 1, {"text": text, "c": expected})

    @staticmethod
    def _resolution(rng):
        divisors = []
        for _ in range(rng.randint(3, 12)):
            a, b = rng.randint(0, 9), rng.randint(0, 12)
            if a == b == 0:
                b = 1
            divisors.append({"a": a, "b": b, "meets_k": rng.random() < 0.8})
        doc = {"divisors": divisors}

        def run():
            return lct.lct_from_resolution(lct.ResolutionData.from_json(doc))

        return Op("resolution", run, 1, {"c": refs.resolution_threshold(divisors)})

    @staticmethod
    def _bergman(rng):
        q = rng.randint(1, 12)
        c = Fraction(rng.randint(0, 3 * q), q)
        m = rng.randint(1, 16)
        z = rng.uniform(0.05, 0.95)

        def run():
            ap = bergman.build_approx(bergman.RadialWeight(c), m)
            return ap, bergman.eval_psi_m(ap, z), bergman.eval_tail_bound(ap, z)

        return Op("bergman", run, 1, {"c": c, "m": m, "z": z})

    @staticmethod
    def _certify(a, d):
        return Op("certify", lambda: fano.certify(fano.WeightSystem(a, d)), 1, {"a": a, "d": d})

    def _certify_box(self, rng):
        a = tuple(sorted(rng.randint(2, 128) for _ in range(4)))
        return self._certify(a, sum(a) - 1)

    def _certify_long(self, rng):
        lo, hi = self.LONG_MONOMIALS
        while True:
            a1 = rng.randint(1, 8)
            a2 = rng.randint(a1, 24)
            a = (1, a1, a2, rng.randint(a2, 128))
            d = sum(a) - 1
            if lo <= refs.monomial_count(a, d) <= hi:
                return self._certify(a, d)

    def check(self, op, output):
        problems: list[str] = []
        data = op.data
        if op.kind == "spec":
            c, lam = output
            _expect(problems, c.is_finite and c.as_fraction() == data["c"], f"{data['text']}: c = {c}")
            _expect(problems, lam.as_fraction() == 1 / data["c"], f"{data['text']}: lambda = {lam}")
        elif op.kind == "resolution":
            want = data["c"]
            got = None if output.is_infinite else output.as_fraction()
            _expect(problems, got == want, f"resolution threshold {output}, expected {want}")
        elif op.kind == "bergman":
            ap, psi, tail = output
            c, m, z = data["c"], data["m"], data["z"]
            k_min = math.floor(c * m)
            _expect(problems, ap.k_min == k_min, f"bergman c={c} m={m}: k_min {ap.k_min}")
            _expect(problems, c - Fraction(1, m) <= Fraction(ap.k_min, m) <= c, "Lelong sandwich")
            c1 = 0.5 * math.log(math.pi / float(k_min + 1 - c * m))
            _expect(problems, psi >= float(c) * math.log(z) - c1 / m - 1e-12, "pointwise lower bound")
            ref = refs.bergman_psi(c, m, ap.k_max, z)
            _expect(problems, math.isclose(psi, ref, rel_tol=1e-9, abs_tol=1e-12), f"psi_m {psi} vs {ref}")
            _expect(problems, tail >= 0.0, "negative tail bound")
        else:
            a, d = data["a"], data["d"]
            _expect(problems, output.monomial_count == refs.monomial_count(a, d), f"{a}: monomial count")
            _expect(problems, output.rho == refs.rho(a, d), f"{a}: rho")
            if (a, d) in refs.CERTIFIED_B128:
                _expect(problems, output.verdict == fano.KE_CERTIFIED, f"{a}: verdict {output.verdict}")
        return problems


# ---------------------------------------------------------------------------
# oracle workloads

SAMPLES = 10**6
# Tolerances on |fitted_c - exact c| are six standard deviations plus the
# bias of the fitted value over 120 seeds at the default grid and sample
# count.  The fit reports no uncertainty of its own, and at few hits (dsum)
# or with the log correction at t != 0 it is that imprecise.
MODULUS_SPECS = {
    # spec: (exact c, volume fraction of the unit polydisk, tolerance on c)
    "mono:2,1": (Fraction(1, 2), refs.frac_mono21, 0.03),
    "diag:2,3": (Fraction(5, 6), refs.frac_diag23, 0.3),
    "dsum(mono:2,1;diag:2,3)": (Fraction(4, 3), refs.frac_dsum, 1.1),
}
# Each check may fail a correct program with probability below this;
# a run makes fewer than 10^4 checks.
CHECK_ALPHA = 1e-10


def _volume_problems(label, rows, frac, nvars) -> list[str]:
    """Each grid volume's implied hit count against its closed form."""
    problems = []
    polydisk = math.pi**nvars
    for r, vol in rows:
        count = vol / polydisk * SAMPLES
        lo, hi = refs.count_interval(SAMPLES, frac(r), CHECK_ALPHA)
        _expect(problems, lo <= count <= hi, f"{label}: r={r:.4g} count {count:.0f} not in [{lo:.1f}, {hi:.1f}]")
    return problems


def _seeds(seed: int, i: int, n: int) -> list[int]:
    rng = random.Random(f"{seed}:{i}")
    return [rng.randrange(2**32) for _ in range(n)]


def _worker_invariance(potential) -> list[str]:
    samples = 3 * 2**17
    one = volume.fit_exponent(potential, samples=samples, workers=1)
    two = volume.fit_exponent(potential, samples=samples, workers=2)
    return [] if one.volumes == two.volumes else ["2-worker volumes differ from 1 worker"]


class OracleModulus(Workload):
    """volume-fit at 10^6 samples, one worker, cycling modulus-only specs."""

    name = "oracle-modulus"

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, i):
        ops = []
        for spec, s in zip(MODULUS_SPECS, _seeds(self.seed, i, len(MODULUS_SPECS))):
            argv = ["volume-fit", "--spec", spec, "--seed", str(s)]
            ops.append(Op("volume-fit", lambda argv=argv: cli_call(argv), SAMPLES, {"spec": spec}))
        return ops

    def check(self, op, output):
        code, text = output
        if code != 0:
            return [f"volume-fit exited {code}"]
        spec = op.data["spec"]
        exact, frac, tol = MODULUS_SPECS[spec]
        payload = json.loads(text)
        problems: list[str] = []
        _expect(problems, payload["exact_c"] == str(exact), f"{spec}: exact_c {payload['exact_c']}")
        _expect(problems, abs(payload["fitted_c"] - exact) <= tol, f"{spec}: fitted_c {payload['fitted_c']}")
        nvars = 4 if spec.startswith("dsum") else 2
        rows = [(g["r"], g["volume"]) for g in payload["grid"]]
        return problems + _volume_problems(spec, rows, frac, nvars)

    def final_checks(self):
        return _worker_invariance(self.potentials()[0])

    def potentials(self):
        return [volume.potential_from_spec(lct.parse_spec(s)) for s in MODULUS_SPECS]


FAMILY_T = (0.0, 0.1, 1.0)
# (m, p) per op of a round, and the tolerance on fitted c at each t.
FAMILY_OPS = ((2, 2), (2, 3), (2, 2))
FAMILY_TOL = {
    (2, 2): {0.0: 0.1, 0.1: 0.45, 1.0: 1.3},
    (2, 3): {0.0: 0.1, 0.1: 0.4, 1.0: 0.65},
}


class OracleFamily(Workload):
    """semicontinuity on z1^m + t z2^p with the log correction."""

    name = "oracle-family"

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, i):
        ops = []
        for (m, p), s in zip(FAMILY_OPS, _seeds(self.seed, i, len(FAMILY_OPS))):
            argv = [
                "semicontinuity", "--m", str(m), "--p", str(p),
                "--t", ",".join(map(str, FAMILY_T)), "--log-correction", "--seed", str(s),
            ]
            data = {"m": m, "p": p}
            ops.append(Op("semicontinuity", lambda argv=argv: cli_call(argv), SAMPLES * len(FAMILY_T), data))
        return ops

    def check(self, op, output):
        code, text = output
        if code != 0:
            return [f"semicontinuity exited {code}"]
        m, p = op.data["m"], op.data["p"]
        payload = json.loads(text)
        problems: list[str] = []
        _expect(problems, payload["violations"] == [], f"({m},{p}): violations {payload['violations']}")
        for entry in payload["entries"]:
            t = entry["t"]
            exact = Fraction(1, m) if t == 0 else min(Fraction(1), Fraction(1, m) + Fraction(1, p))
            _expect(
                problems,
                abs(entry["fitted_c"] - exact) <= FAMILY_TOL[m, p][t],
                f"({m},{p}) t={t}: fitted_c {entry['fitted_c']}",
            )
        return problems

    def final_checks(self):
        """t = 0 volumes against pi^2 r^(2/m), for one op of each kind in round 0."""
        problems = []
        for (m, p), s in dict(zip(FAMILY_OPS, _seeds(self.seed, 0, len(FAMILY_OPS)))).items():
            fit = volume.fit_exponent(volume.binomial_family(m, p)(0.0), seed=s, with_log_correction=True)
            rows = list(zip(fit.radii, fit.volumes))
            problems += _volume_problems(f"({m},{p}) t=0", rows, refs.frac_power(m), 2)
        return problems + _worker_invariance(volume.binomial_family(2, 2)(0.1))

    def potentials(self):
        return [volume.binomial_family(m, p)(t) for m, p in sorted(set(FAMILY_OPS)) for t in FAMILY_T]


WORKLOADS = {w.name: w for w in (ScanBox, ExactQueries, OracleModulus, OracleFamily)}
