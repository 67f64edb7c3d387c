"""Command-line interface.

One entry point, one subcommand per capability:

    lct             exact thresholds for spec strings or resolution JSON
    volume-fit      Monte-Carlo sublevel volumes + exponent regression
    semicontinuity  fitted exponents across the family z1^m + t z2^p
    bergman         radial Bergman approximant table and bound checks
    fano-certify    Kahler-Einstein certificate for one weight system
    fano-monomials  degree-d monomial enumeration
    fano-scan       certify a whole weight box, report CSV
    fano            nested alias: fano certify | monomials | scan

Exit codes: 0 success, 1 invalid input (including flag errors), 2
insufficient data, 3 internal consistency failure.  All randomness flows
from --seed, which defaults to a fixed constant so outputs are stable;
JSON output uses compact separators and a fixed field order so byte
identity across runs is meaningful.  A --config file of key=value lines
supplies per-flag defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import bergman as bg
from . import fano
from . import lct
from . import volume as vol
from .errors import InsufficientDataError, InternalError, InvalidInputError
from .extrational import ExtRational

# Characters a --config or --resolution file may hold
_MAX_FILE_CHARS = 1 << 24


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"weights must be comma-separated integers, got {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"expected comma-separated numbers, got {text!r}") from exc


def _add_format(parser: argparse.ArgumentParser, default: str = "json") -> None:
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default=default, help="output format"
    )
    parser.add_argument("--out", default=None, help="also write the output to this file")
    parser.add_argument(
        "--config", default=None, help="key=value file supplying defaults for any flag"
    )


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    # one flag per FitConfig field, stored under the field's name
    parser.set_defaults(**vars(vol.FitConfig()))
    parser.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    parser.add_argument("--seed", type=int, help=f"RNG seed (default {vol.FitConfig.seed})")
    parser.add_argument(
        "--rmin", dest="r_min", metavar="RMIN", type=float, help="smallest grid radius"
    )
    parser.add_argument(
        "--rmax", dest="r_max", metavar="RMAX", type=float, help="largest grid radius"
    )
    parser.add_argument(
        "--grid", dest="grid_size", metavar="GRID", type=int, help="number of grid radii"
    )
    parser.add_argument(
        "--log-correction",
        dest="with_log_correction",
        action="store_true",
        help="add the log log(1/r) regressor to the volume fit",
    )
    parser.add_argument("--workers", type=int, help="parallel sampling workers")


def _fit_config(args: argparse.Namespace) -> vol.FitConfig:
    return vol.FitConfig(**{name: getattr(args, name) for name in vars(vol.FitConfig())})


def _read_text(path: str, name: str) -> str:
    """The text of a file named on the command line, decoded as
    ``Path.read_text`` decodes it; past _MAX_FILE_CHARS characters the
    rest is left unread and the file refused."""
    try:
        with open(path) as file:
            text = file.read(_MAX_FILE_CHARS + 1)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {name}: {exc}") from exc
    if len(text) > _MAX_FILE_CHARS:
        raise InvalidInputError(f"{name} holds over {_MAX_FILE_CHARS} characters")
    return text


def _inject_config(argv: list[str]) -> list[str]:
    """Turn the key=value lines of a --config file into flags of the command
    being run, put before its first flag so that explicit flags win.  A key
    must name a flag of that command, a repeated key keeps its last value,
    and a store_true flag takes true or false."""
    # a --config with no path is argparse's to refuse
    paths = [path for flag, path in zip(argv, argv[1:]) if flag == "--config"]
    paths += [t.partition("=")[2] for t in argv if t.startswith("--config=")]
    if not paths:
        return argv
    path = paths[0]
    head = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
    parser = _build_parser()
    for token in argv[:head]:  # down the subcommands to the command's parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parser = action.choices.get(token, parser)
    flags: dict[str, list[str]] = {}
    for lineno, raw in enumerate(_read_text(path, f"config file {path}").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        flag, value = "--" + key.strip().replace("_", "-"), value.strip()
        action = parser._option_string_actions.get(flag)
        if action is None:
            raise InvalidInputError(f"{path}:{lineno}: {parser.prog} has no flag {flag}")
        if action.nargs != 0:
            flags[flag] = [f"{flag}={value}"]
        elif value.lower() in ("true", "yes", "on", "1", "false", "no", "off", "0"):
            flags[flag] = [flag] if value.lower() in ("true", "yes", "on", "1") else []
        else:
            raise InvalidInputError(f"{path}:{lineno}: {flag} takes true or false, got {value!r}")
    return argv[:head] + [token for tokens in flags.values() for token in tokens] + argv[head:]


# ---------------------------------------------------------------------------
# handlers


def _cmd_lct(args: argparse.Namespace) -> str:
    if bool(args.spec) == bool(args.resolution):
        raise InvalidInputError("provide exactly one of --spec or --resolution")
    if args.spec:
        c = lct.lct_monomial(lct.parse_spec(args.spec))
    else:
        text = _read_text(args.resolution, args.resolution)
        c = lct.lct_from_resolution(lct.ResolutionData.from_json(text))
    lam = lct.arnold_multiplicity(c)
    if args.format == "json":
        return _dumps({"c": str(c), "lambda": str(lam)})
    if args.format == "csv":
        return f"c,lambda\n{c},{lam}"
    return f"c = {c}\nlambda = {lam}"


def _cmd_volume_fit(args: argparse.Namespace) -> str:
    spec = lct.parse_spec(args.spec)
    potential = vol.potential_from_spec(spec)
    fit = vol.fit_exponent(potential, **vars(_fit_config(args)))
    exact = lct.lct_monomial(spec)
    if args.format == "json":
        payload = {"spec": lct.spec_to_text(spec), "exact_c": str(exact)}
        return _dumps({**payload, **fit.to_json_dict()})
    if args.format == "csv":
        return fit.to_csv().rstrip("\n")
    lines = [
        f"spec            {lct.spec_to_text(spec)}",
        f"exact c         {exact}",
        f"fitted c        {fit.fitted_c:.4f}",
        f"log power       "
        + ("-" if fit.fitted_log_power is None else f"{fit.fitted_log_power:.4f}"),
        f"r_squared       {fit.r_squared:.6f}",
        "",
        f"{'r':>12} {'volume':>14} {'std_error':>12} used",
    ]
    for row in fit.to_rows():
        lines.append(
            f"{row['r']:>12.6g} {row['volume']:>14.6g} {row['std_error']:>12.3g} "
            + ("yes" if row["used_in_fit"] else "no")
        )
    return "\n".join(lines)


def _cmd_semicontinuity(args: argparse.Namespace) -> str:
    family = vol.binomial_family(args.m, args.p)
    report = vol.semicontinuity_experiment(
        family, _parse_floats(args.t), _fit_config(args), tolerance=args.tolerance
    )
    if args.format == "json":
        return _dumps(
            {
                "family": f"z1^{args.m} + t*z2^{args.p}",
                "baseline_c": report.baseline_c,
                "tolerance": report.tolerance,
                "entries": [
                    {"t": t, "fitted_c": c} for t, c in report.entries()
                ],
                "violations": list(report.violations),
            }
        )
    if args.format == "csv":
        lines = ["t,fitted_c,violation"]
        for t, c in report.entries():
            lines.append(f"{t!r},{c!r},{str(t in report.violations).lower()}")
        return "\n".join(lines)
    lines = [f"family z1^{args.m} + t*z2^{args.p}, tolerance {report.tolerance}"]
    for t, c in report.entries():
        mark = "  VIOLATION" if t in report.violations else ""
        lines.append(f"t = {t:<8g} fitted_c = {c:.4f}{mark}")
    lines.append(
        "no semicontinuity violations" if not report.violations else
        f"violations at t = {sorted(report.violations)}"
    )
    return "\n".join(lines)


def _cmd_bergman(args: argparse.Namespace) -> str:
    weight = bg.RadialWeight(args.c)
    approx = bg.build_approx(weight, args.m, args.kmax)
    lelong = bg.lelong_of_psi_m(approx)
    c = weight.c
    m = args.m
    sandwich_ok = c - Fraction(1, m) <= lelong.as_fraction() <= c
    payload = {
        "c": str(ExtRational(c)),
        "m": m,
        "k_min": approx.k_min,
        "k_max": approx.k_max,
        "lelong": str(lelong),
        "lelong_float": round(float(lelong), 6),
        "sandwich_ok": bool(sandwich_ok),
        "lower_bound_constant": round(bg.lower_bound_constant(approx), 6),
    }
    if args.eval is not None:
        z = args.eval
        psi = bg.eval_psi_m(approx, z)
        phi = float(c) * math.log(z)
        bound = phi - bg.lower_bound_constant(approx) / m
        payload["eval"] = {
            "z_abs": z,
            "psi_m": psi,
            "phi": phi,
            "tail_bound": bg.eval_tail_bound(approx, z),
            "pointwise_lower_bound": bound,
            "pointwise_bound_ok": bool(psi >= bound - 1e-12),
        }
    if args.format == "json":
        return _dumps(payload)
    if args.format == "csv":
        keys = [k for k in payload if k != "eval"]
        return ",".join(keys) + "\n" + ",".join(str(payload[k]) for k in keys)
    lines = [f"{k:<22} {v}" for k, v in payload.items() if k != "eval"]
    if "eval" in payload:
        lines.append("eval:")
        lines.extend(f"  {k:<20} {v}" for k, v in payload["eval"].items())
    return "\n".join(lines)


def _weight_system(args: argparse.Namespace) -> fano.WeightSystem:
    return fano.WeightSystem(_parse_weights(args.weights), args.degree)


def _cmd_fano_certify(args: argparse.Namespace) -> str:
    cert = fano.certify(_weight_system(args))
    if args.format == "json":
        return cert.to_json()
    if args.format == "csv":
        a = cert.weights.a
        q = cert.rho
        rho_float = fano.display_float(q)
        rho_cols = "," if q is None else f"{q.numerator}/{q.denominator},{rho_float:.6f}"
        return (
            "a0,a1,a2,a3,d,fletcher,rho,rho_float,verdict\n"
            f"{a[0]},{a[1]},{a[2]},{a[3]},{cert.weights.d},"
            f"{str(cert.fletcher.passes).lower()},{rho_cols},{cert.verdict}"
        )
    d = cert.to_json_dict()
    lines = [
        f"weights         {tuple(d['weights'])}  degree {d['degree']}  k {d['k']}",
        f"verdict         {d['verdict']}",
        f"fletcher        {'pass' if d['fletcher']['pass'] else 'FAIL'}",
        f"monomials       {d['monomial_count']}",
        f"(-K)^2          {d['anticanonical_square']}",
        f"curve bound     {d['curve_bound_ok']}",
        f"line condition  {d['line_condition_ok']}",
        f"rho             {d['rho']}  ({d['rho_float']})",
        f"rho_refined     {d['rho_refined']}  ({d['rho_refined_float']})",
        f"delta           {d['delta_note']}",
    ]
    if cert.refined_needs_curve_check:
        lines.append("note            refined pass; nef claim rests on the recorded (x0=0)-curve check")
    return "\n".join(lines)


def _cmd_fano_monomials(args: argparse.Namespace) -> str:
    w = _weight_system(args)
    monos = fano.weighted_monomials(w)
    if args.format == "json":
        return _dumps(
            {
                "weights": list(w.a),
                "degree": w.d,
                "count": len(monos),
                "monomials": [list(m) for m in monos],
            }
        )
    if args.format == "csv":
        return "e0,e1,e2,e3\n" + "\n".join(",".join(map(str, m)) for m in monos)
    def render(m: fano.Monomial) -> str:
        parts = [f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e > 0]
        return "*".join(parts) if parts else "1"
    return "\n".join(render(m) for m in monos) or "(none)"


def _cmd_fano_scan(args: argparse.Namespace) -> str:
    config = fano.ScanConfig(
        max_a3=args.max_weight,
        fano_index=args.index,
        min_a0=args.min_a0,
        require_refined=args.refined,
    )
    report = fano.scan(config)
    if args.format == "json":
        return _dumps(
            {
                "config": vars(config),
                "examined": report.examined,
                "prefilter_survivors": report.prefilter_survivors,
                "entries": [c.to_json_dict() for c in report.entries],
            }
        )
    if args.format == "csv":
        return report.to_csv().rstrip("\n")
    certified = [c.weights for c in report.certified]
    refined = [c.weights for c in report.certified_refined]
    lines = [
        f"examined {report.examined} systems "
        f"(box a3<={config.max_a3}, index {config.fano_index}, a0>={config.min_a0}); "
        f"{report.prefilter_survivors} passed the prefilter, "
        f"{len(report.entries)} pass the orbifold conditions "
        f"(max a0 = {report.max_a0})",
        f"certified        {[(w.a, w.d) for w in certified]}",
        f"certified_refined {[(w.a, w.d) for w in refined]}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser wiring


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--weights", required=True, help="a0,a1,a2,a3 (nondecreasing)")
    parser.add_argument("--degree", type=int, required=True, help="hypersurface degree d")


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-weight", type=int, required=True, help="largest allowed weight a3")
    parser.add_argument("--index", type=int, default=1, help="Fano index k-d")
    parser.add_argument("--min-a0", type=int, default=1, help="smallest allowed weight a0")
    parser.add_argument(
        "--refined",
        action="store_true",
        help="grant refined verdicts to systems with a recorded curve check",
    )


# (name, help, flag adder, default format) per fano command; the handler
# of fano command <name> is _cmd_fano_<name>
_FANO_COMMANDS = (
    ("certify", "certificate for one weight system", _add_weight_flags, "json"),
    ("monomials", "degree-d monomials", _add_weight_flags, "json"),
    ("scan", "certify a whole weight box", _add_scan_flags, "csv"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Handlers are stored
    by name and looked up in this module when a command runs."""
    parser = argparse.ArgumentParser(
        prog="lctkit",
        description="Exact singularity exponents, Monte-Carlo volume oracles, "
        "radial Bergman approximants, and Kahler-Einstein certificates.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lct", help="exact threshold of a spec or resolution", allow_abbrev=False)
    p.add_argument("--spec", default=None, help="e.g. diag:2,3 or dsum(mono:2;diag:3)")
    p.add_argument("--resolution", default=None, help="path to resolution-data JSON")
    _add_format(p)
    p.set_defaults(handler="_cmd_lct")

    p = sub.add_parser("volume-fit", help="Monte-Carlo exponent fit", allow_abbrev=False)
    p.add_argument("--spec", required=True, help="potential spec, e.g. mono:2,1")
    _add_fit_flags(p)
    _add_format(p)
    p.set_defaults(handler="_cmd_volume_fit")

    p = sub.add_parser(
        "semicontinuity", help="fitted exponents across z1^m + t z2^p", allow_abbrev=False
    )
    p.add_argument("--m", type=int, default=2, help="exponent of z1")
    p.add_argument("--p", type=int, default=2, help="exponent of z2")
    p.add_argument("--t", default="0,0.1,1", help="comma-separated family parameters")
    p.add_argument("--tolerance", type=float, default=0.05, help="violation margin")
    _add_fit_flags(p)
    _add_format(p)
    p.set_defaults(handler="_cmd_semicontinuity")

    p = sub.add_parser("bergman", help="radial Bergman approximant", allow_abbrev=False)
    p.add_argument("--c", required=True, help="weight coefficient, a rational like 3/4")
    p.add_argument("--m", type=int, required=True, help="approximation order")
    p.add_argument("--kmax", type=int, default=None, help="coefficient table cutoff")
    p.add_argument("--eval", type=float, default=None, help="evaluate psi_m at this |z|")
    _add_format(p)
    p.set_defaults(handler="_cmd_bergman")

    # each fano command is registered flat (fano-certify, with its help
    # line) and nested under the alias (fano certify) from the same row,
    # so the two cannot drift apart
    for name, help_text, add_flags, fmt in _FANO_COMMANDS:
        p = sub.add_parser(f"fano-{name}", help=help_text, allow_abbrev=False)
        add_flags(p)
        _add_format(p, default=fmt)
        p.set_defaults(handler=f"_cmd_fano_{name}")

    p = sub.add_parser("fano", help="nested alias: fano certify|monomials|scan", allow_abbrev=False)
    fano_sub = p.add_subparsers(dest="fano_command", required=True)
    for name, _, add_flags, fmt in _FANO_COMMANDS:
        q = fano_sub.add_parser(name, allow_abbrev=False)
        add_flags(q)
        _add_format(q, default=fmt)
        q.set_defaults(handler=f"_cmd_fano_{name}")

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _inject_config(argv)
        args = _build_parser().parse_args(argv)
        payload = globals()[args.handler](args)
    except SystemExit as exc:  # argparse --help (0) or usage error
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: assertion failed: {exc}", file=sys.stderr)
        return 3
    print(payload)
    if args.out:
        try:
            Path(args.out).write_text(payload + "\n")
        except (OSError, ValueError) as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
