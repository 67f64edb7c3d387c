"""Reference values computed apart from lctkit, for the output checks.

Nothing here imports the program: thresholds come from closed forms and
published tables, monomial counts from a generating-function recurrence,
sublevel volumes from integrals done by hand, and Monte-Carlo tolerances
from a Bernstein tail bound on binomial counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Log canonical thresholds of the plane-curve ADE singularities that are
# separated sums x^p + y^q (Arnold's list): A_k = x^2 + y^(k+1),
# D_4 = x^3 + y^3, E_6 = x^3 + y^4, E_8 = x^3 + y^5.
ADE_THRESHOLDS: dict[str, Fraction] = {
    **{f"A{k}": Fraction(1, 2) + Fraction(1, k + 1) for k in range(1, 13)},
    "D4": Fraction(2, 3),
    "E6": Fraction(7, 12),
    "E8": Fraction(8, 15),
}
ADE_SPECS: dict[str, str] = {
    **{f"A{k}": f"ssum(mono:2;mono:{k + 1})" for k in range(1, 13)},
    "D4": "ssum(mono:3;mono:3)",
    "E6": "ssum(mono:3;mono:4)",
    "E8": "ssum(mono:3;mono:5)",
}

# The two systems of the a3 <= 128, a0 >= 3 box with rho < 1 (Johnson-Kollar).
CERTIFIED_B128 = {((11, 49, 69, 128), 256), ((13, 35, 81, 128), 256)}


def spec_threshold(tree) -> Fraction:
    """Threshold of a spec tree ("mono"|"diag", ints) or ("dsum"|"ssum", l, r)."""
    tag = tree[0]
    if tag == "mono":
        return min(Fraction(1, e) for e in tree[1] if e > 0)
    if tag == "diag":
        return sum((Fraction(1, m) for m in tree[1]), Fraction(0))
    total = spec_threshold(tree[1]) + spec_threshold(tree[2])
    return total if tag == "dsum" else min(Fraction(1), total)


def spec_text(tree) -> str:
    tag = tree[0]
    if tag in ("mono", "diag"):
        return f"{tag}:" + ",".join(map(str, tree[1]))
    return f"{tag}({spec_text(tree[1])};{spec_text(tree[2])})"


def resolution_threshold(divisors: list[dict]):
    """min (a+1)/b over divisors meeting K with b > 0; None for infinity."""
    values = [
        Fraction(d["a"] + 1, d["b"]) for d in divisors if d["meets_k"] and d["b"] > 0
    ]
    return min(values) if values else None


def monomial_count(weights, d: int) -> int:
    """Coefficient of t^d in prod 1/(1 - t^a), by the usual recurrence."""
    coef = [1] + [0] * d
    for a in weights:
        for j in range(a, d + 1):
            coef[j] += coef[j - a]
    return coef[d]


def rho(weights, d: int) -> Fraction:
    """4 delta d (k-d)(k-a0-a2) / (3 a0 a1 a2 a3), delta = a2 if a3 | d else a3."""
    a0, a1, a2, a3 = weights
    k = a0 + a1 + a2 + a3
    delta = a2 if d % a3 == 0 else a3
    return Fraction(4 * delta * d * (k - d) * (k - a0 - a2), 3 * a0 * a1 * a2 * a3)


def bergman_psi(c: Fraction, m: int, k_max: int, z: float) -> float:
    """(1/2m) log sum_{k=floor(mc)}^{k_max} (k+1-mc)/pi z^(2k), summed directly."""
    mc = c * m
    k_min = math.floor(mc)
    log_terms = [
        math.log(float(k + 1 - mc) / math.pi) + 2 * k * math.log(z)
        for k in range(k_min, k_max + 1)
    ]
    top = max(log_terms)
    return (top + math.log(math.fsum(math.exp(t - top) for t in log_terms))) / (2 * m)


# Sublevel volume fractions mu({phi < log r}) / mu(polydisk) on the unit
# polydisk, with u = |z|^2 uniform on [0, 1] for each coordinate.
def frac_mono21(r: float) -> float:
    """u1 * sqrt(u2) < r: 2r - r^2."""
    return 2 * r - r * r


def frac_diag23(r: float) -> float:
    """u1 + u2^(3/2) < r: (3/5) r^(5/3)."""
    return 0.6 * r ** (5 / 3)


def frac_dsum(r: float) -> float:
    """X + Y < r, X with density 2 - 2x (mono:2,1), Y with cdf (3/5) y^(5/3)."""
    return 0.45 * r ** (8 / 3) - (27 / 220) * r ** (11 / 3)


def frac_power(m: int):
    """|z1|^m < r on the bidisk: r^(2/m)."""
    return lambda r: r ** (2.0 / m)


def count_interval(n: int, p: float, alpha: float) -> tuple[float, float]:
    """Bernstein bound: a Binomial(n, p) count leaves this interval with
    probability below alpha, for any p, small expected counts included."""
    log_term = math.log(2.0 / alpha)
    var = n * p * (1.0 - p)
    t = log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * var * log_term)
    return n * p - t, n * p + t
