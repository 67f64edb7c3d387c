"""End-to-end CLI checks: golden outputs, exit codes, config/out plumbing,
and determinism of the sampled subcommands."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lctkit import cli, lct
from lctkit import volume as vol
from lctkit.errors import InternalError


def run(capsys, *argv):
    rc = cli.run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# lct


def test_lct_spec_golden(capsys):
    rc, out, err = run(capsys, "lct", "--spec", "diag:2,3")
    assert rc == 0
    assert out == '{"c":"5/6","lambda":"6/5"}\n'
    assert err == ""


def test_lct_formats(capsys):
    rc, out, _ = run(capsys, "lct", "--spec", "diag:2,3", "--format", "csv")
    assert rc == 0
    assert out == "c,lambda\n5/6,6/5\n"
    rc, out, _ = run(capsys, "lct", "--spec", "diag:2,3", "--format", "text")
    assert rc == 0
    assert out == "c = 5/6\nlambda = 6/5\n"


def test_lct_nested_spec(capsys):
    rc, out, _ = run(capsys, "lct", "--spec", "dsum(mono:2;diag:3)")
    assert rc == 0
    assert json.loads(out) == {"c": "5/6", "lambda": "6/5"}
    rc, out, _ = run(capsys, "lct", "--spec", "ssum(mono:2;mono:2)")
    assert json.loads(out)["c"] == "1"


@pytest.mark.parametrize(
    "spec, c, lam",
    [
        ("dsum(mono:2;diag:3)", "5/6", "6/5"),
        ("ssum(mono:2;mono:3)", "5/6", "6/5"),
        ("mono:3,0,2", "1/3", "3"),
    ],
)
def test_lct_spec_golden_in_every_format(capsys, spec, c, lam):
    assert run(capsys, "lct", "--spec", spec) == (0, f'{{"c":"{c}","lambda":"{lam}"}}\n', "")
    assert run(capsys, "lct", "--spec", spec, "--format", "csv") == (0, f"c,lambda\n{c},{lam}\n", "")
    assert run(capsys, "lct", "--spec", spec, "--format", "text") == (
        0, f"c = {c}\nlambda = {lam}\n", ""
    )


def _nested(head, depth, leaf="mono:1"):
    """A spec with depth levels of head(leaf;...), innermost head(leaf;leaf)."""
    return f"{head}({leaf};" * depth + leaf + ")" * depth


def test_lct_spec_nesting_is_bounded(capsys):
    limit = lct._MAX_SPEC_DEPTH
    rc, out, _ = run(capsys, "lct", "--spec", _nested("dsum", limit))
    assert rc == 0
    assert json.loads(out)["c"] == str(limit + 1)
    # 988 levels once overflowed the parser's recursion with a RecursionError
    for depth in (limit + 1, 988, 5000):
        rc, out, err = run(capsys, "lct", "--spec", _nested("dsum", depth))
        assert rc == 1
        assert out == ""
        assert err == f"error: spec nests more than {limit} dsum(/ssum( levels\n"


def test_volume_fit_spec_nesting_is_bounded(capsys):
    limit = lct._MAX_SPEC_DEPTH
    args = ("--samples", "20000", "--rmin", "0.3", "--rmax", "0.9", "--grid", "4")
    rc, out, _ = run(capsys, "volume-fit", "--spec", _nested("ssum", limit), *args)
    assert rc == 0
    payload = json.loads(out)
    assert payload["exact_c"] == "1"
    assert payload["spec"] == _nested("ssum", limit)
    rc, out, err = run(capsys, "volume-fit", "--spec", _nested("ssum", limit + 1), *args)
    assert rc == 1
    assert out == ""
    assert "nests more than" in err


def test_lct_resolution_file(capsys, tmp_path):
    path = tmp_path / "res.json"
    path.write_text(
        '{"divisors":[{"a":1,"b":2,"meets_k":true},{"a":3,"b":4}]}'
    )
    rc, out, _ = run(capsys, "lct", "--resolution", str(path))
    assert rc == 0
    assert json.loads(out) == {"c": "1", "lambda": "1"}


def test_lct_resolution_golden(capsys, tmp_path):
    qualifying = tmp_path / "q.json"
    qualifying.write_text('{"divisors":[{"a":0,"b":2},{"a":1,"b":3},{"a":4,"b":0}]}')
    none = tmp_path / "none.json"
    none.write_text('{"divisors":[{"a":0,"b":2,"meets_k":false},{"a":4,"b":0}]}')
    for fmt, q_out, none_out in (
        ("json", '{"c":"1/2","lambda":"2"}\n', '{"c":"inf","lambda":"0"}\n'),
        ("csv", "c,lambda\n1/2,2\n", "c,lambda\ninf,0\n"),
        ("text", "c = 1/2\nlambda = 2\n", "c = inf\nlambda = 0\n"),
    ):
        assert run(capsys, "lct", "--resolution", str(qualifying), "--format", fmt) == (0, q_out, "")
        assert run(capsys, "lct", "--resolution", str(none), "--format", fmt) == (0, none_out, "")


def test_lct_resolution_with_an_integer_int_refuses_exits_1(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"divisors":[{"a":' + "1" * 5000 + ',"b":2}]}')
    rc, out, err = run(capsys, "lct", "--resolution", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: resolution data is not valid JSON")


def test_lct_missing_resolution_file(capsys):
    rc, out, err = run(capsys, "lct", "--resolution", "/no/such/file.json")
    assert rc == 1
    assert "cannot read" in err


def test_lct_requires_exactly_one_source(capsys, tmp_path):
    rc, _, err = run(capsys, "lct")
    assert rc == 1 and "exactly one" in err
    path = tmp_path / "r.json"
    path.write_text('{"divisors":[]}')
    rc, _, err = run(capsys, "lct", "--spec", "diag:2", "--resolution", str(path))
    assert rc == 1 and "exactly one" in err


def test_exit_code_invalid_spec(capsys):
    rc, out, err = run(capsys, "lct", "--spec", "diag:0,3")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "integers >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lct", "--spec", "mono:\u00b2"),
        ("lct", "--spec", "dsum(mono:1;diag:\u2074)"),
        ("lct", "--spec", "mono:" + "9" * 5000),
        ("volume-fit", "--spec", "diag:2,\u00b3"),
    ],
    ids=["lct-superscript", "lct-nested-superscript", "lct-past-int-digit-limit", "volume-fit"],
)
def test_spec_digits_that_int_refuses_exit_1(capsys, argv):
    # str.isdigit accepts superscripts, and int() refuses more than 4300
    # digits; both once ended in a ValueError traceback
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "integer" in err


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "lct", "--no-such-flag")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "lct", "--help")[0] == 0


def test_exit_code_insufficient_data(capsys):
    # radii so small that every sampled volume is zero
    rc, _, err = run(
        capsys,
        "volume-fit", "--spec", "mono:1",
        "--samples", "2000", "--rmin", "1e-9", "--rmax", "1e-8", "--grid", "4",
    )
    assert rc == 2
    assert "nonzero volume" in err


def test_exit_code_internal_assertion(capsys, monkeypatch):
    def broken(args):
        raise InternalError("deliberately broken")

    monkeypatch.setattr(cli, "_cmd_lct", broken)
    rc, _, err = run(capsys, "lct", "--spec", "diag:2,3")
    assert rc == 3
    assert "assertion" in err


# ---------------------------------------------------------------------------
# volume-fit and semicontinuity


FAST_FIT = ("--samples", "2000", "--rmin", "0.05", "--rmax", "0.5", "--grid", "5")


def test_volume_fit_json(capsys):
    rc, out, _ = run(capsys, "volume-fit", "--spec", "mono:1", *FAST_FIT)
    assert rc == 0
    payload = json.loads(out)
    assert payload["spec"] == "mono:1"
    assert payload["exact_c"] == "1"
    assert payload["fitted_log_power"] is None
    assert 0.8 < payload["fitted_c"] < 1.2
    assert len(payload["grid"]) == 5
    # compact separators, fixed order: byte identity is meaningful
    assert out == json.dumps(payload, separators=(",", ":")) + "\n"


def test_volume_fit_grid_over_the_chunk_budget_exits_1(capsys):
    # the result rows of 10^6 radii alone would take about 430 MB; the
    # grid is refused before the radii or any sample is allocated
    cli.run(["lct", "--spec", "mono:1"])  # build the cached parser first
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "volume-fit", "--spec", "mono:2,1", "--grid", "1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert out == ""
    assert "MiB for a 131072-sample chunk and the result rows" in err
    assert peak < 1 << 18  # the radius grid alone would take 8 MB


def test_radius_charge_covers_what_a_fit_and_its_json_allocate(capsys):
    # the per-radius growth of a volume-fit's tracemalloc peak, from the
    # chunk's count arrays to the JSON on stdout, stays under _RADIUS_BYTES
    def peak(grid):
        tracemalloc.start()
        try:
            rc = cli.run(
                ["volume-fit", "--spec", "mono:1", "--samples", "1000",
                 "--rmin", "0.3", "--rmax", "0.9", "--grid", str(grid)]
            )
            assert rc == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(4)  # build the cached parser first
    assert peak(20000) - peak(2000) < 18000 * vol._RADIUS_BYTES


def test_volume_fit_samples_over_the_chunk_limit_exits_1(capsys):
    # 10^12 samples are about 7.6M chunks: their seeds alone would take
    # about 3.4 GB, so the count is refused before any seed is spawned
    cli.run(["lct", "--spec", "mono:1"])  # build the cached parser first
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "volume-fit", "--spec", "mono:2,1", "--samples", "1000000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert out == ""
    assert err.startswith("error: samples must be at most")
    assert peak < 1 << 18


def test_volume_fit_deterministic(capsys):
    args = ("volume-fit", "--spec", "diag:2,3", *FAST_FIT)
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    _, other, _ = run(capsys, *args, "--seed", "7")
    assert other != first


def test_volume_fit_csv_and_text(capsys):
    rc, out, _ = run(capsys, "volume-fit", "--spec", "mono:1", *FAST_FIT, "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "r,volume,std_error,used_in_fit"
    rc, out, _ = run(capsys, "volume-fit", "--spec", "mono:1", *FAST_FIT, "--format", "text")
    assert rc == 0
    assert "fitted c" in out


def test_semicontinuity_small(capsys):
    rc, out, _ = run(
        capsys,
        "semicontinuity", "--m", "2", "--p", "2", "--t", "0,0.5",
        "--tolerance", "10", *FAST_FIT,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["family"] == "z1^2 + t*z2^2"
    assert [e["t"] for e in payload["entries"]] == [0.0, 0.5]
    assert payload["violations"] == []
    assert payload["baseline_c"] == payload["entries"][0]["fitted_c"]


def test_semicontinuity_csv_and_text_golden(capsys):
    args = ("semicontinuity", "--t", "0,0.5", *FAST_FIT)
    rc, out, _ = run(capsys, *args, "--format", "csv")
    assert rc == 0
    assert out == (
        "t,fitted_c,violation\n"
        "0.0,0.5282942552767653,false\n"
        "0.5,0.8593664388973171,false\n"
    )
    rc, out, _ = run(capsys, *args, "--format", "text")
    assert rc == 0
    assert out == (
        "family z1^2 + t*z2^2, tolerance 0.05\n"
        "t = 0        fitted_c = 0.5283\n"
        "t = 0.5      fitted_c = 0.8594\n"
        "no semicontinuity violations\n"
    )


def test_semicontinuity_unparseable_t_exits_1(capsys):
    rc, out, err = run(capsys, "semicontinuity", "--t", "0,abc", *FAST_FIT)
    assert rc == 1
    assert out == ""
    assert err == "error: expected comma-separated numbers, got '0,abc'\n"


@pytest.mark.parametrize("t", ["0,nan", "0,inf"])
def test_semicontinuity_non_finite_t_exits_1_before_any_draw(capsys, monkeypatch, t):
    built = []
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: built.append(seed) or pcg64(seed))
    rc, out, err = run(capsys, "semicontinuity", "--t", t, *FAST_FIT)
    expected = f"error: family parameters t must be finite numbers, got {t[2:]}\n"
    assert (rc, out, err) == (1, "", expected)
    assert built == []


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_semicontinuity_rejects_non_finite_tolerance(capsys, tolerance):
    rc, out, err = run(capsys, "semicontinuity", "--tolerance", tolerance, *FAST_FIT)
    assert rc == 1
    assert out == ""
    assert "tolerance" in err


def test_semicontinuity_requires_baseline(capsys):
    rc, _, err = run(capsys, "semicontinuity", "--t", "0.5,1", *FAST_FIT)
    assert rc == 1
    assert "t = 0" in err


# ---------------------------------------------------------------------------
# bergman


def test_bergman_json(capsys):
    rc, out, _ = run(capsys, "bergman", "--c", "3/4", "--m", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["k_min"] == 1
    assert payload["k_max"] == 65
    assert payload["lelong"] == "1/2"
    assert payload["sandwich_ok"] is True
    assert payload["lower_bound_constant"] == pytest.approx(0.918939)
    assert "eval" not in payload


def test_bergman_eval(capsys):
    rc, out, _ = run(capsys, "bergman", "--c", "0", "--m", "1", "--eval", "0.5")
    assert rc == 0
    block = json.loads(out)["eval"]
    assert block["z_abs"] == 0.5
    assert block["psi_m"] == pytest.approx(-0.28468287047291907, abs=1e-12)
    assert block["phi"] == 0.0
    assert block["pointwise_bound_ok"] is True
    assert block["tail_bound"] >= 0


_BERGMAN_ROWS = (
    "c                      3/4\n"
    "m                      2\n"
    "k_min                  1\n"
    "k_max                  65\n"
    "lelong                 1/2\n"
    "lelong_float           0.5\n"
    "sandwich_ok            True\n"
    "lower_bound_constant   0.918939\n"
)


def test_bergman_csv_and_text_golden(capsys):
    csv = (
        "c,m,k_min,k_max,lelong,lelong_float,sandwich_ok,lower_bound_constant\n"
        "3/4,2,1,65,1/2,0.5,True,0.918939\n"
    )
    base = ("bergman", "--c", "3/4", "--m", "2")
    # csv leaves the evaluation out
    assert run(capsys, *base, "--format", "csv") == (0, csv, "")
    assert run(capsys, *base, "--eval", "0.5", "--format", "csv") == (0, csv, "")
    assert run(capsys, *base, "--format", "text") == (0, _BERGMAN_ROWS, "")
    assert run(capsys, *base, "--eval", "0.5", "--format", "text") == (
        0,
        _BERGMAN_ROWS
        + "eval:\n"
        "  z_abs                0.5\n"
        "  psi_m                -0.6064159328278661\n"
        "  phi                  -0.5198603854199589\n"
        "  tail_bound           1.484061617913138e-38\n"
        "  pointwise_lower_bound -0.9793296520222953\n"
        "  pointwise_bound_ok   True\n",
        "",
    )


def test_bergman_invalid_inputs(capsys):
    assert run(capsys, "bergman", "--c", "-1", "--m", "2")[0] == 1
    assert run(capsys, "bergman", "--c", "3/4", "--m", "0")[0] == 1
    assert run(capsys, "bergman", "--c", "3/4", "--m", "2", "--eval", "1.5")[0] == 1
    assert run(capsys, "bergman", "--c", "x", "--m", "2")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--c", "1e400", "--m", "1"),
        ("--c", "1e300", "--m", "10000000000", "--eval", "0.5"),
    ],
)
def test_bergman_m_times_c_beyond_float_range_exits_1(capsys, argv):
    rc, out, err = run(capsys, "bergman", *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: m*c must fit a float")


def test_bergman_m_beyond_float_range_exits_1(capsys):
    # m*c = 0 fits, but psi_m divides by 2m
    rc, out, err = run(capsys, "bergman", "--c", "0", "--m", "1" + "0" * 400, "--eval", "0.5")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: 2*m must fit a float")


def test_bergman_eval_where_the_squared_modulus_underflows(capsys):
    # |z|^2 = 1e-400 is below the smallest float; log|z|^2 is 2 log|z|
    rc, out, _ = run(capsys, "bergman", "--c", "1", "--m", "1", "--eval", "1e-200")
    assert rc == 0
    block = json.loads(out)["eval"]
    assert math.isfinite(block["psi_m"])
    # psi_1 = (1/2) log(|z|^2 / pi + ...) and the higher terms vanish
    assert block["psi_m"] == pytest.approx(-200 * math.log(10) - 0.5 * math.log(math.pi))
    assert block["pointwise_bound_ok"] is True


# ---------------------------------------------------------------------------
# fano


def test_fano_certify_json(capsys):
    rc, out, _ = run(capsys, "fano-certify", "--weights", "11,49,69,128", "--degree", "256")
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "KE_CERTIFIED"
    assert payload["rho"] == "472/539"
    assert payload["rho_float"] == 0.875696
    assert payload["fletcher"]["pass"] is True


def test_fano_certify_csv_golden(capsys):
    header = "a0,a1,a2,a3,d,fletcher,rho,rho_float,verdict\n"
    rc, out, _ = run(
        capsys, "fano-certify", "--weights", "11,49,69,128", "--degree", "256", "--format", "csv"
    )
    assert (rc, out) == (0, header + "11,49,69,128,256,true,472/539,0.875696,KE_CERTIFIED\n")
    # degree 4 on weights 1,1,1,1 is not Fano: no rho, two empty columns
    rc, out, _ = run(
        capsys, "fano-certify", "--weights", "1,1,1,1", "--degree", "4", "--format", "csv"
    )
    assert (rc, out) == (0, header + "1,1,1,1,4,true,,,NOT_FANO\n")


def test_fano_nested_alias_is_identical(capsys):
    flat = run(capsys, "fano-certify", "--weights", "9,15,17,20", "--degree", "60")
    nested = run(capsys, "fano", "certify", "--weights", "9,15,17,20", "--degree", "60")
    assert flat == nested
    flat = run(capsys, "fano-monomials", "--weights", "1,1,1,1", "--degree", "2")
    nested = run(capsys, "fano", "monomials", "--weights", "1,1,1,1", "--degree", "2")
    assert flat == nested
    flat = run(capsys, "fano-scan", "--max-weight", "8")
    nested = run(capsys, "fano", "scan", "--max-weight", "8")
    assert flat == nested


def test_fano_certify_text_mentions_curve_check(capsys):
    rc, out, _ = run(
        capsys, "fano-certify", "--weights", "9,15,17,20", "--degree", "60",
        "--format", "text",
    )
    assert rc == 0
    assert "KE_CERTIFIED_REFINED" in out
    assert "curve check" in out


def test_fano_certify_invalid(capsys):
    assert run(capsys, "fano-certify", "--weights", "3,2,1,5", "--degree", "9")[0] == 1
    assert run(capsys, "fano-certify", "--weights", "1,2,x,4", "--degree", "9")[0] == 1
    assert run(capsys, "fano-certify", "--weights", "1,2,3", "--degree", "9")[0] == 1


def test_fano_monomials_output(capsys):
    rc, out, _ = run(capsys, "fano-monomials", "--weights", "11,49,69,128", "--degree", "256")
    payload = json.loads(out)
    assert payload["count"] == 4
    assert [17, 0, 1, 0] in payload["monomials"]
    rc, out, _ = run(
        capsys, "fano-monomials", "--weights", "11,49,69,128", "--degree", "256",
        "--format", "csv",
    )
    assert out.splitlines()[0] == "e0,e1,e2,e3"
    rc, out, _ = run(
        capsys, "fano-monomials", "--weights", "11,49,69,128", "--degree", "256",
        "--format", "text",
    )
    lines = out.splitlines()
    assert lines[0] == "x3^2"
    assert "x0^17*x2" in lines


def test_fano_monomials_and_certify_refuse_a_degree_over_the_step_budget(capsys):
    # (e0, e1, e2) take C(303, 3), about 4.5e6 steps, above the budget; the
    # system is refused before the enumeration starts.  On weights 1,1,1,1
    # the steps grow like d^3 and each is a monomial: degree 1000 would need
    # tens of GB.
    cli.run(["lct", "--spec", "mono:1"])  # build the cached parser first
    capsys.readouterr()
    for command in ("fano-monomials", "fano-certify"):
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, command, "--weights", "1,1,1,1000", "--degree", "300")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: degree 300 on weights (1, 1, 1, 1000) may take more than")
        assert peak < 1 << 18


def test_fano_scan_csv_default(capsys):
    rc, out, _ = run(capsys, "fano-scan", "--max-weight", "12")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "a0,a1,a2,a3,d,fletcher,rho_num,rho_den,rho_float,verdict"
    assert len(lines) == 12
    assert all(line.split(",")[5] == "pass" for line in lines[1:])


def test_fano_scan_refined_flag(capsys):
    base = run(capsys, "fano-scan", "--max-weight", "20", "--min-a0", "3")[1]
    refined = run(capsys, "fano-scan", "--max-weight", "20", "--min-a0", "3", "--refined")[1]
    assert "KE_CERTIFIED_REFINED" not in base
    target = next(l for l in refined.splitlines() if l.startswith("9,15,17,20,"))
    assert target.endswith("KE_CERTIFIED_REFINED")
    # the refined flag flips exactly that one row
    diff = [
        (b, r) for b, r in zip(base.splitlines(), refined.splitlines()) if b != r
    ]
    assert len(diff) == 1 and diff[0][1] == target


def test_fano_scan_rejects_workers_flag(capsys):
    for argv in (("fano-scan",), ("fano", "scan")):
        rc, out, _ = run(capsys, *argv, "--max-weight", "12", "--workers", "2")
        assert rc == 1
        assert out == ""


def test_fano_scan_box_over_budget_exits_1(capsys):
    # 2.9e9 systems: refused before any array is built
    rc, out, err = run(capsys, "fano-scan", "--max-weight", "512")
    assert rc == 1
    assert out == ""
    assert "at most" in err


def test_fano_scan_huge_index_is_an_empty_scan(capsys):
    # index >= 4 * max_a3 leaves every d <= 0; no int32 column is built
    rc, out, err = run(capsys, "fano-scan", "--max-weight", "8", "--index", "3000000000")
    assert rc == 0
    assert out == "a0,a1,a2,a3,d,fletcher,rho_num,rho_den,rho_float,verdict\n"
    assert err == ""


def test_fano_scan_json(capsys):
    rc, out, _ = run(capsys, "fano-scan", "--max-weight", "12", "--format", "json")
    payload = json.loads(out)
    assert payload["examined"] == 1365
    assert payload["config"]["max_a3"] == 12
    assert len(payload["entries"]) == 11
    assert payload["entries"][0]["weights"] == [3, 3, 5, 5]


def test_fano_scan_text_golden(capsys):
    rc, out, _ = run(capsys, "fano-scan", "--max-weight", "20", "--min-a0", "3", "--format", "text")
    assert rc == 0
    assert out == (
        "examined 5985 systems (box a3<=20, index 1, a0>=3); 5 passed the prefilter, "
        "5 pass the orbifold conditions (max a0 = 9)\n"
        "certified        []\n"
        "certified_refined []\n"
    )


def test_python_dash_m_lctkit_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "lctkit", "lct", "--spec", "diag:2,3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, '{"c":"5/6","lambda":"6/5"}\n', "")
    done = subprocess.run(
        [sys.executable, "-m", "lctkit", "lct", "--spec", "diag:0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")


# ---------------------------------------------------------------------------
# numbers past the float range


N = str(10**400)
A = str(10**200)  # rho of 1,1,1,A in degree 3 is about 4*10^400


@pytest.mark.parametrize(
    "argv",
    [
        ("volume-fit", "--spec", f"mono:{N}"),
        ("volume-fit", "--spec", f"diag:{N}"),
        ("volume-fit", "--spec", f"ssum(mono:{N};mono:1)"),
        ("volume-fit", "--spec", f"ssum(mono:1;ssum(mono:1;mono:{N}))"),
        ("semicontinuity", "--m", N),
        ("semicontinuity", "--p", N),
        ("fano-certify", "--weights", f"1,1,1,{A}", "--degree", "3"),
        ("fano-certify", "--weights", f"1,1,1,{A}", "--degree", "3", "--format", "csv"),
        ("fano-certify", "--weights", f"1,1,1,{A}", "--degree", "3", "--format", "text"),
        ("bergman", "--c", "3/4", "--m", "4", "--kmax", "100000000"),
    ],
    ids=[
        "mono", "diag", "ssum", "ssum-3", "family-m", "family-p",
        "certify-json", "certify-csv", "certify-text", "bergman-kmax",
    ],
)
def test_numbers_past_the_float_range_exit_1(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


def test_lct_of_an_exponent_past_the_float_range_is_exact(capsys):
    rc, out, _ = run(capsys, "lct", "--spec", f"mono:{N}")
    assert rc == 0
    assert json.loads(out)["c"] == f"1/{N}"


# ---------------------------------------------------------------------------
# exact values too long to print

# Python writes an int of at most 4300 digits as text
BIG = 10**2200  # diag:BIG,BIG+1 has c = (2 BIG + 1) / (BIG (BIG + 1)), about 4400 digits
NINES = "9" * 4300


def assert_too_long_to_print(rc, out, err):
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "bits is too long to print" in err


def test_lct_of_a_threshold_too_long_to_print_exits_1(capsys):
    assert_too_long_to_print(*run(capsys, "lct", "--spec", f"diag:{BIG},{BIG + 1}"))


def test_lct_of_a_resolution_too_long_to_print_exits_1(capsys, tmp_path):
    path = tmp_path / "resolution.json"
    path.write_text('{"divisors":[{"a":' + NINES + ',"b":1}]}')
    assert_too_long_to_print(*run(capsys, "lct", "--resolution", str(path)))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_certificate_too_long_to_print_exits_1(capsys, fmt):
    argv = ("fano-certify", "--weights", f"1,1,1,{NINES}", "--degree", "3", "--format", fmt)
    assert_too_long_to_print(*run(capsys, *argv))


def test_scan_box_too_large_to_print_exits_1(capsys):
    assert_too_long_to_print(*run(capsys, "fano-scan", "--max-weight", str(10**1200)))


# ---------------------------------------------------------------------------
# config files and --out


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# table cutoff\nkmax=20\n")
    rc, out, _ = run(capsys, "bergman", "--c", "3/4", "--m", "2", "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["k_max"] == 20
    # explicit flag beats the config value
    rc, out, _ = run(
        capsys, "bergman", "--c", "3/4", "--m", "2", "--config", str(cfg), "--kmax", "30"
    )
    assert json.loads(out)["k_max"] == 30


def test_config_file_boolean_flag(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("refined=true\nmax_weight=20\nmin_a0=3\n")
    rc, out, _ = run(capsys, "fano-scan", "--config", str(cfg))
    assert rc == 0
    assert "KE_CERTIFIED_REFINED" in out
    cfg.write_text("refined=false\nmax_weight=20\nmin_a0=3\n")
    rc, out, _ = run(capsys, "fano-scan", "--config", str(cfg))
    assert "KE_CERTIFIED_REFINED" not in out


def test_config_file_with_nested_subcommand(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("max_weight=12\n")
    rc, out, _ = run(capsys, "fano", "scan", "--config", str(cfg))
    assert rc == 0
    assert len(out.splitlines()) == 12


def test_config_file_errors(capsys, tmp_path):
    assert run(capsys, "lct", "--spec", "diag:2", "--config", "/no/file")[0] == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a pair\n")
    rc, _, err = run(capsys, "lct", "--spec", "diag:2", "--config", str(bad))
    assert rc == 1
    assert "key=value" in err
    assert run(capsys, "lct", "--spec", "diag:2", "--config")[:2] == (1, "")


@pytest.mark.parametrize(
    "argv, lines, message",
    [
        (["lct", "--spec", "diag:2"], ["format=csv", "# note", "colour=red"], "no flag --colour"),
        # a flag of another command is not a flag of this one
        (["lct", "--spec", "diag:2"], ["", "refined=true"], "no flag --refined"),
        (["fano", "scan"], ["max_weight=12", "spec=diag:2"], "no flag --spec"),
        (["fano-scan"], ["max_weight=12", "refined=maybe"], "--refined takes true or false"),
    ],
    ids=["unknown", "other-command", "nested", "not-a-boolean"],
)
def test_config_key_must_be_a_flag_of_the_command(capsys, tmp_path, argv, lines, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (rc, out) == (1, "")
    assert err.startswith(f"error: {cfg}:{len(lines)}: ") and message in err


def test_config_repeated_key_keeps_its_last_value(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kmax=20\nkmax=25\n")
    rc, out, _ = run(capsys, "bergman", "--c", "3/4", "--m", "2", "--config", str(cfg))
    assert (rc, json.loads(out)["k_max"]) == (0, 25)
    cfg.write_text("refined=true\nmax_weight=20\nmin_a0=3\nrefined=false\n")
    rc, out, _ = run(capsys, "fano-scan", "--config", str(cfg))
    assert rc == 0 and out == run(capsys, "fano-scan", "--max-weight", "20", "--min-a0", "3")[1]


def test_config_boolean_and_dash_values_are_the_flags(capsys, tmp_path):
    # log_correction is found as a store_true flag of its command; a value
    # starting with "-" is the flag's value, not another flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("log_correction=TRUE\nt=-0.5,0\nformat=csv\n")
    rc, out, _ = run(capsys, "semicontinuity", *FAST_FIT, "--config", str(cfg))
    explicit = run(capsys, "semicontinuity", *FAST_FIT, "--log-correction", "--t=-0.5,0",
                   "--format", "csv")
    assert rc == 0 and (rc, out) == explicit[:2]


def test_config_of_many_lines_is_read_in_linear_time(capsys, tmp_path):
    # argparse's parse time grows with the square of its token count; one
    # token per flag keeps it flat however long the file is
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\n")
    one = run(capsys, "lct", "--spec", "diag:2", "--config", str(cfg))
    cfg.write_text("format=json\n" * 32768)
    start = time.perf_counter()
    many = run(capsys, "lct", "--spec", "diag:2", "--config", str(cfg))
    assert time.perf_counter() - start < 1.0
    assert many == one and one[0] == 0
    cfg.write_text("".join(f"key{i}=value\n" for i in range(32768)))
    start = time.perf_counter()
    rc, _, err = run(capsys, "lct", "--spec", "diag:2", "--config", str(cfg))
    assert time.perf_counter() - start < 1.0
    assert rc == 1 and f"{cfg}:1: " in err


# no "/" so that an out= or resolution= value names a file in the working
# directory; no surrogates, which cannot be written to the file
_config_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/"))
_config_lines = st.one_of(
    st.tuples(
        st.sampled_from(["out", "format", "spec", "resolution", "config", "refined"])
        | _config_text,
        st.sampled_from(["true", "false", "json", "csv", "text", "."]) | _config_text,
    ).map("=".join),
    _config_text,
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_config_lines, max_size=6))
def test_config_file_fuzz_exits_0_or_1(tmp_path, monkeypatch, lines):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text("\n".join(lines), encoding="utf-8")
    assert cli.run(["lct", "--spec", "diag:2", "--config", str(cfg)]) in (0, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["--spec", "diag:2", "--config", "bad\x00.cfg"],
        ["--resolution", "bad\x00.json"],
        ["--spec", "diag:2", "--out", "bad\x00.json"],
    ],
    ids=["config", "resolution", "out"],
)
def test_nul_in_a_path_exits_1(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run(capsys, "lct", *argv)
    assert rc == 1
    assert err.startswith("error: cannot")


def test_config_file_that_is_not_text_exits_1(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe=1\n")
    rc, _, err = run(capsys, "lct", "--spec", "diag:2", "--config", str(cfg))
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, name",
    [(["--resolution"], "{}"), (["--spec", "diag:2", "--config"], "config file {}")],
    ids=["resolution", "config"],
)
def test_file_one_character_over_the_bound_exits_1(capsys, tmp_path, argv, name):
    path = tmp_path / "big"
    with open(path, "wb") as f:
        f.truncate(cli._MAX_FILE_CHARS + 1)  # sparse: the NULs take no disk space
    rc, out, err = run(capsys, "lct", *argv, str(path))
    assert (rc, out) == (1, "")
    assert err == f"error: {name.format(path)} holds over {cli._MAX_FILE_CHARS} characters\n"


def test_file_bound_counts_decoded_characters(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    text = "# r\u00e9glage\nkmax=30\n"
    cfg.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "_MAX_FILE_CHARS", len(text))
    rc, out, _ = run(capsys, "bergman", "--c", "3/4", "--m", "2", "--config", str(cfg))
    assert rc == 0 and json.loads(out)["k_max"] == 30
    monkeypatch.setattr(cli, "_MAX_FILE_CHARS", len(text) - 1)
    rc, _, err = run(capsys, "bergman", "--c", "3/4", "--m", "2", "--config", str(cfg))
    assert rc == 1 and "holds over" in err


def test_out_writes_payload(capsys, tmp_path):
    target = tmp_path / "result.json"
    rc, out, _ = run(capsys, "lct", "--spec", "diag:2,3", "--out", str(target))
    assert rc == 0
    assert target.read_text() == out
    assert out == '{"c":"5/6","lambda":"6/5"}\n'


def test_out_unwritable(capsys):
    rc, _, err = run(capsys, "lct", "--spec", "diag:2,3", "--out", "/no/dir/x.json")
    assert rc == 1
    assert "cannot write" in err
