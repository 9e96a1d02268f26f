import json
import math
import pathlib
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric, cli
from dirac3sphere.cli import main, parse_grid, parse_metric
from dirac3sphere.gershgorin import CertificationStep

from _oracles import dense_min_abs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_metric_rationals():
    m = parse_metric("1,1,1/2")
    assert m.triple() == (1.0, 1.0, 0.5)
    assert parse_metric(" 3/4 , 0.25, 2 ").triple() == (0.75, 0.25, 2.0)
    with pytest.raises(ValueError):
        parse_metric("1,2")
    with pytest.raises(ValueError):
        parse_metric("1,x,3")


def test_parse_grid():
    assert parse_grid("0.5:2:4,1:1:1,0.5:0.5:1") == [(0.5, 2.0, 4), (1.0, 1.0, 1), (0.5, 0.5, 1)]
    with pytest.raises(ValueError):
        parse_grid("0.5:2:4,1:1:1")
    with pytest.raises(ValueError):
        parse_grid("2:1:3,1:1:1,1:1:1")


def test_spectrum_json_document(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--metric", "1,1,1", "--manifold", "so3-trivial", "--max-level", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 7
    assert doc["command"] == "spectrum"
    assert doc["metric"] == [1, 1, 1]
    assert list(doc) == ["schema_version", "command", "options", "metric", "manifold", "results"]
    lines = doc["results"]["lines"]
    assert len(lines) == 1
    assert lines[0]["eigenvalue"] == pytest.approx(-1.5)
    assert lines[0]["multiplicity"] == 2


def test_spectrum_contains_mu_line(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--metric", "1,1,1", "--manifold", "s3", "--max-level", "1")
    doc = json.loads(out)
    assert any(
        abs(l["eigenvalue"] - 1.5) < 1e-12 and l["multiplicity"] == 2 for l in doc["results"]["lines"]
    )


def test_spectrum_csv(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--metric", "1,1,1", "--manifold", "s3", "--max-level", "1", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "eigenvalue,level,block,multiplicity"
    assert rows[1].split(",") == ["-2.5", "1", "AB", "6"]
    assert len(rows) == 4


def test_json_eigenvalues_read_back_as_the_library_values(capsys):
    m = Metric(1.2593, 0.5123, 0.3979)
    code, out, _ = run_cli(capsys, "spectrum", "--metric", "1.2593,0.5123,0.3979", "--manifold", "s3",
                           "--max-level", "30")
    assert code == 0
    got = [line["eigenvalue"] for line in json.loads(out)["results"]["lines"]]
    assert got == [line.eigenvalue for line in d3s.assemble(m, d3s.S3, 30).lines]


def test_byte_identical_output(capsys):
    args = ("smallest", "--metric", "1.1,0.9,0.7", "--manifold", "s3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_usage_error_domain_violation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--metric", "0,1,1", "--manifold", "s3", "--max-level", "2"])
    assert exc.value.code == 2


def test_usage_error_bad_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--metric", "1,1,1", "--manifold", "nowhere", "--max-level", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main(["invariants", "--metric", "1,1,1", "--format", "csv"])
    assert exc2.value.code == 2
    with pytest.raises(SystemExit) as exc3:
        main(["smallest", "--metric", "1,1,1", "--manifold", "s3", "--horizon", "30"])
    assert exc3.value.code == 2


def test_non_finite_result_is_an_error(capsys):
    # the couplings overflow in symmetrize: an error line, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            capsys, "spectrum", "--metric", "1e300,1e300,1e300", "--manifold", "s3", "--max-level", "2"
        )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not finite" in err
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("metric", ["1e160,1e160,1e160", "1e-160,1e-160,1e-160"])
def test_float_range_errors_are_reported(capsys, metric):
    # sigma3 = (abc)^2 at 1e160 and the volume 2 pi^2/(abc) at 1e-160 lie
    # beyond the double range; every finite field is exact
    code, out, err = run_cli(capsys, "invariants", "--metric", metric)
    assert code == 1
    assert out == ""
    assert err == "error: result is not finite; it cannot be serialized\n"


def test_invariants_far_from_unit_scale_are_exact(capsys):
    # the float sigma route divided by sigma3 = 1e-600, which underflows to 0
    code, out, err = run_cli(capsys, "invariants", "--metric", "1e-100,1e-100,1e-100")
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert (res["C"], res["mu"], res["scal"], res["scal_sign"]) == (1.5e-100, 1.5e-100, 6e-200, "positive")
    inv = d3s.invariants(Metric(1e-160, 1e-160, 1e-160))
    assert (inv.C, inv.mu, inv.vol_s3) == (1.5e-160, 1.5e-160, math.inf)


def test_scal_near_the_wall_is_the_exact_value(capsys):
    # 8(sigma1 - C^2) in floats printed 4.973799150320701e-14 here
    code, out, _ = run_cli(capsys, "invariants", "--metric", "2,1,0.6666666666666676")
    assert code == 0
    assert '"scal": 4.61852778244064e-14,' in out


def test_certified_tone_at_1e_160_is_the_exact_value(capsys):
    # the float mu went through the subnormal ab and printed 1.5000166992259753e-160
    code, out, _ = run_cli(capsys, "smallest", "--metric", "1e-160,1e-160,1e-160", "--manifold", "s3", "--certify", "on")
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["value"], res["certified"]) == (1.5e-160, True)
    assert (res["certification"]["C"], res["certification"]["mu"]) == (1.5e-160, 1.5e-160)


def test_verify_calls_the_round_point_at_1e_200_positive(capsys):
    # ab = 1e-400 underflows to 0, so the float factors read 0 and the screen "negative"
    code, out, _ = run_cli(capsys, "verify", "--grid", "1e-200:1e-200:1,1e-200:1e-200:1,1e-200:1e-200:1", "--details")
    assert code == 0
    (point,) = json.loads(out)["results"]["points"]
    assert (point["scal_sign"], point["status"]) == ("positive", "pass")
    # at the metric's own scale its level-3 margins read -1e-200 and its
    # degree-5 margins 0.0; at the normalized scale every one is positive
    assert point["min_margin"] > 0
    assert all(step["margin"] > 0 for step in point["steps"])


@pytest.mark.parametrize("triple", [(1.3e-200, 0.8e-200, 0.9e-200), tuple(x * 2.0 ** -600 for x in (1.3, 0.8, 0.9))])
def test_verify_far_below_unit_scale_reports_no_negative_margin(capsys, triple):
    # the margins are taken at the normalized scale; at the metric's own
    # scale they underflowed and a passing point printed a negative margin
    grid = ",".join(f"{x!r}:{x!r}:1" for x in triple)
    code, out, _ = run_cli(capsys, "verify", "--grid", grid, "--details")
    assert code == 0
    (point,) = json.loads(out)["results"]["points"]
    assert point["status"] == "pass"
    assert point["min_margin"] > 0
    assert all(step["margin"] > 0 for step in point["steps"])


def test_truncation_warning_is_one_line(capsys):
    code, out, err = run_cli(
        capsys, "heat-trace", "--metric", "1,1,1", "--manifold", "s3", "--max-level", "2", "--t", "1", "--lam", "100"
    )
    assert code == 0 and json.loads(out)["results"]["counting"]["count"] == 28
    assert err == "warning: level cutoff 2 is insufficient for lam = 100.0: largest |eigenvalue| at level 2 is 3.5\n"
    # level 0 is even, so no level of the odd structure is below the cutoff
    code, out, err = run_cli(
        capsys, "heat-trace", "--metric", "3,1,0.3", "--manifold", "so3-nontrivial", "--max-level", "0", "--t", "1",
        "--lam", "1"
    )
    assert code == 0 and json.loads(out)["results"]["counting"]["count"] == 0
    assert err == "warning: level cutoff 0 is insufficient for lam = 1.0: it admits no level on so3-nontrivial\n"


def test_non_finite_document_is_an_error(capsys):
    # the certificate's margins are at the normalized scale, but the trace's
    # exact scal, about 2^1200 here, is beyond the double range and reaches
    # the encoder as inf
    metric = ",".join(repr(x * 2.0 ** 600) for x in (1.3, 0.8, 0.9))
    code, out, err = run_cli(capsys, "smallest", "--metric", metric, "--manifold", "s3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "not finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, want", [
    ("spectrum --metric 1,1,1 --manifold s3 --max-level -1", 2),
    ("smallest --metric 1,1,0.3 --manifold s3 --max-level -1", 2),
    ("heat-trace --metric 1,1,1 --manifold s3 --t 0 --max-level 4", 2),
    ("heat-trace --metric 1,1,1 --manifold s3 --t nan --max-level 4", 2),
    ("heat-trace --metric 1,1,1 --manifold s3 --t 0.1 --max-level 4 --lam -1", 2),
    ("heat-trace --metric 1,1,1 --manifold s3 --t 0.1 --max-level 4 --lam inf", 2),
    ("reconstruct --manifold s3 --volume 0 --scal 6 --mu 1.5", 2),
    ("reconstruct --manifold s3 --volume inf --scal 6 --mu 1.5", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal inf --mu 1.5", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal 6 --mu nan", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal 6 --c -inf", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal -6 --a2tilde nan", 2),
    ("smallest --metric 1,1,0.3 --manifold so3-nontrivial --max-level 0", 1),
    ("reconstruct --manifold s3 --volume 1e-300 --scal 1 --mu 1", 1),
    ("reconstruct --manifold s3 --volume 1e-310 --scal 6 --mu 1.5", 1),
    ("invariants --metric 1e400,1,1", 2),
    ("verify --grid 1:1e400:2,1:1:1,1:1:1", 2),
])
def test_out_of_range_arguments_are_refused(capsys, argv, want):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == want
    assert out == ""
    assert "Traceback" not in err
    assert "error:" in err.splitlines()[-1]
    if want == 1:
        assert err.startswith("error:") and err.count("\n") == 1
    if argv.endswith("-inf"):
        assert "must be finite" in err  # the value reaches its check
    if "1e-300" in argv:
        assert err.startswith("error: the computation left the double range")  # s2^2 overflows
    if "1e-310" in argv:
        assert err.startswith("error: the computation left the double range: abc inf")  # 2 pi^2 / volume overflows


@pytest.mark.parametrize("argv, message", [
    pytest.param("spectrum --metric 1.3,0.8,0.6 --manifold s3",
                 f"levels up to {10 ** 18} need {(10 ** 18 + 1 + 3 * 5 * 10 ** 17) * (10 ** 18 + 1)} solver entries, "
                 "above the cap of 2^20",
                 id="spectrum --metric 1.3,0.8,0.6 --manifold s3"),
    pytest.param("smallest --metric 1.3,0.8,0.3 --manifold s3",
                 f"level cutoff must be below 2^26 for a proved rounding allowance, got {10 ** 18}",
                 id="smallest --metric 1.3,0.8,0.3 --manifold s3"),
])
def test_a_cutoff_beyond_memory_is_one_error_line(capsys, argv, message):
    # 10^18 levels are refused before anything is allocated: exit 1, no
    # traceback.  spectrum is refused by the cost cap on its solver rows; an
    # enumerated smallest on the level bounds' limit of 2^26, before it
    # builds its array of levels
    code, out, err = run_cli(capsys, *argv.split(), "--max-level", str(10 ** 18))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("manifold", ["s3", "so3-trivial", "so3-nontrivial"])
def test_an_enumerated_cutoff_of_2_26_is_refused_before_any_array(capsys, manifold):
    # the cutoff itself is the first one refused, on every manifold, with
    # the level bounds' own message and no large allocation on the way
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "smallest", "--metric", "1.3,0.8,0.3", "--manifold", manifold,
                                 "--max-level", str(2 ** 26))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"error: level cutoff must be below 2^26 for a proved rounding allowance, got {2 ** 26}\n"
    assert peak < 10 ** 7


@pytest.mark.parametrize("manifold, cap", [("s3", 647), ("so3-trivial", 1447), ("so3-nontrivial", 1024)])
@pytest.mark.parametrize("command", [["spectrum"], ["heat-trace", "--t", "0.1"]])
def test_a_cutoff_above_the_cost_cap_is_refused_before_any_array(capsys, manifold, cap, command):
    # the first cutoff past the cap of spectrum.MAX_SOLVER_ENTRIES, with no
    # large allocation on the way (its rows would take some 8 MB as doubles)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *command, "--metric", "1.3,0.8,0.3", "--manifold", manifold,
                                 "--max-level", str(cap + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: levels up to {cap + 1} need ") and err.endswith("above the cap of 2^20\n")
    assert peak < 10 ** 6


def test_smallest_enumeration_at_2_to_the_600_is_the_unit_result_scaled(capsys):
    # scal < 0 at the scales 2^+-600, where C overflows or every eigenvalue
    # lies below the unit-scale tol: the enumeration runs at the normalized
    # scale, so each prints 2^+-600 times the unit value, with its multiplicity
    for manifold in ("s3", "so3-trivial", "so3-nontrivial"):
        code, out, _ = run_cli(capsys, "smallest", "--metric", "1.3,0.8,0.3", "--manifold", manifold)
        unit = json.loads(out)["results"]
        for j in (-600, 600):
            metric = ",".join(repr(math.ldexp(x, j)) for x in (1.3, 0.8, 0.3))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "smallest", "--metric", metric, "--manifold", manifold)
            assert (code, err) == (0, "")
            res = json.loads(out)["results"]
            assert res["value"] == math.ldexp(unit["value"], j)
            assert res["multiplicity_d_squared"] == unit["multiplicity_d_squared"]


def test_smallest_with_non_finite_normalized_blocks_is_an_error(capsys):
    # (1, 1, 1e-310) is at unit scale already and its C overflows there
    for manifold in ("s3", "so3-trivial", "so3-nontrivial"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "smallest", "--metric", "1,1,1e-310", "--manifold", manifold)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not finite" in err


def test_smallest_huge_entry_answers_without_warnings(capsys):
    # scal < 0 and every level bound overflows to inf: each level is
    # examined, not pruned, and nothing warns
    m = Metric(1e200, 1, 0.5)
    assert d3s.scal_sign_classification(m) == d3s.NEGATIVE
    assert np.isinf(d3s.level_bounds(m, np.arange(26))).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "smallest", "--metric", "1e200,1,0.5", "--manifold", "s3")
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert (res["method"], res["certified"]) == ("enumeration", False)
    assert (res["value"], res["multiplicity_d_squared"]) == dense_min_abs(m, "s3", 25)[:2]


@pytest.mark.parametrize("metric", ["1e20,1,1", "1e200,1,1", "1,1,0.5000000000001"])
def test_smallest_auto_and_on_agree_next_to_the_wall(capsys, metric):
    # within relative 1e-12 of the wall but off it: one verdict, the
    # certificate's (a float band once enumerated these under auto, and
    # counted multiplicity 4 at (1e20, 1, 1))
    results = []
    for certify in ("auto", "on"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "smallest", "--metric", metric, "--manifold", "s3", "--certify", certify)
        assert (code, err) == (0, "")
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]
    res = results[0]
    assert (res["certified"], res["multiplicity_d_squared"], res["certification"]["theorem"]) == (True, 2, cli._THEOREM)
    if metric == "1e20,1,1":
        assert res["value"] == 2.0


def test_exact_walls_are_scal_zero_and_enumerated(capsys):
    # all 81 walls (p, q, pq/(p+q)), p, q in 1..9: through Metric and as
    # written on the command line, scal is 0 exactly and smallest enumerates
    for p in range(1, 10):
        for q in range(1, 10):
            m = Metric(p, q, Fraction(p * q, p + q))
            assert (m.scal, d3s.scal_sign_classification(m)) == (0.0, d3s.ZERO), (p, q)
            assert not d3s.smallest(m, d3s.S3, max_level=8).certified
            metric = f"{p},{q},{p * q}/{p + q}"
            code, out, _ = run_cli(capsys, "invariants", "--metric", metric)
            res = json.loads(out)["results"]
            assert (code, res["scal"], res["scal_sign"]) == (0, 0.0, "zero"), metric
            code, out, _ = run_cli(capsys, "smallest", "--metric", metric, "--manifold", "s3", "--max-level", "8")
            res = json.loads(out)["results"]
            assert (code, res["certified"], res["method"]) == (0, False, "enumeration"), metric


def test_a_written_ratio_stays_exact_and_a_decimal_is_its_double():
    assert parse_metric("6,4,12/5")._written == (6.0, 4.0, Fraction(12, 5))
    assert parse_metric("6,4,2.4")._written == (6.0, 4.0, 2.4)
    assert parse_metric("6,4,12/5").triple() == parse_metric("6,4,2.4").triple()
    assert d3s.scal_sign_classification(parse_metric("6,4,2.4")) == d3s.NEGATIVE


def test_smallest_round(capsys):
    code, out, _ = run_cli(capsys, "smallest", "--metric", "1,1,1", "--manifold", "s3")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["value"] == pytest.approx(1.5)
    assert res["multiplicity_d_squared"] == 4
    assert res["certified"] is True
    assert list(res["certification"]) == ["sorted_metric", "permutation", "C", "mu", "scal", "theorem"]
    # the certificate is the theorem, named with the test that proves it
    test = re.search(r"tests/(test_\w+)\.py::(test_\w+)", res["certification"]["theorem"])
    source = (pathlib.Path(__file__).resolve().parent / f"{test.group(1)}.py").read_text()
    assert f"\ndef {test.group(2)}(" in source


def test_smallest_multiplicity_four_only_on_the_exact_round_line(capsys):
    # off a = b = c, 2C - (a+b+c) > 0 exactly: |-C| at level 0 is not mu
    for metric, want in (("1,1,1", 4), ("1,1,1.0000000000001", 2), ("0.5,0.5,0.5", 4)):
        code, out, _ = run_cli(capsys, "smallest", "--metric", metric, "--manifold", "s3", "--certify", "on")
        assert code == 0
        res = json.loads(out)["results"]
        assert (res["multiplicity_d_squared"], res["certified"]) == (want, True), metric


def test_smallest_certify_on_negative_scal_fails(capsys):
    code, out, err = run_cli(
        capsys, "smallest", "--metric", "1,1,0.4", "--manifold", "s3", "--certify", "on"
    )
    assert code == 1
    assert "error" in err.lower()


def test_invariants_document(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--metric", "1,1,1/2")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["scal"] == 0.0
    assert res["scal_sign"] == "zero"
    assert res["C"] == pytest.approx(1.5)
    assert res["heat"]["s3"]["a1"] == 0.0


def test_reconstruct_round_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "reconstruct",
        "--manifold", "s3",
        "--volume", "19.7392088",
        "--scal", "6",
        "--mu", "1.5",
    )
    assert code == 0
    res = json.loads(out)["results"]
    # the 9-digit volume is ~1e-9 off 2 pi^2, which the triple root amplifies
    assert res["triple"] == pytest.approx([1, 1, 1], rel=1e-4)
    assert res["branch"] == "mu"


def test_negative_value_in_exponent_form_is_read_as_the_value(capsys):
    # argparse alone reads "-1.6128e2" as an option, not as --scal's value
    argv = ["reconstruct", "--manifold", "s3", "--volume", "21.932454224643017", "--a2tilde", "3587278.2336000004"]
    code, out, err = run_cli(capsys, *argv, "--scal", "-1.6128e2")
    assert (code, err) == (0, "")
    assert sorted(json.loads(out)["results"]["triple"], reverse=True) == pytest.approx([3, 1, 0.3], rel=1e-12)
    assert run_cli(capsys, *argv, "--scal=-1.6128e2") == (code, out, err)


def test_reconstruct_requires_exactly_one_discriminator(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--manifold", "s3", "--volume", "19.74", "--scal", "6"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main([
            "reconstruct", "--manifold", "s3", "--volume", "19.74", "--scal", "6",
            "--mu", "1.5", "--c", "1.5",
        ])
    assert exc2.value.code == 2


def test_reconstruct_wrong_regime_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "reconstruct", "--manifold", "s3", "--volume", "19.74", "--scal", "-1", "--mu", "1.5"
    )
    assert code == 1
    assert "scal" in err


def test_heat_trace_with_counting(capsys):
    code, out, _ = run_cli(
        capsys,
        "heat-trace",
        "--metric", "1,1,1", "--manifold", "s3", "--t", "0.05", "--max-level", "60", "--lam", "40",
    )
    assert code == 0
    res = json.loads(out)["results"]
    asym = (4 * math.pi * 0.05) ** -1.5 * (4 * math.pi ** 2 - 2 * math.pi ** 2 * 0.05)
    assert res["value"] == pytest.approx(asym, rel=0.01)
    assert res["tail_estimate"] <= 1e-10 * res["value"]
    assert res["counting"]["count"] == 42640


def test_verify_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--grid", "0.8:1.6:2,0.8:1.6:2,0.8:1.6:2"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["summary"]["fail"] == 0
    assert res["summary"]["pass"] >= 1
    for point in res["points"]:
        if point["status"] == "pass":
            assert point["min_margin"] > 0
        elif point["status"] == "skipped":
            assert point["reason"]


def test_verify_byte_identical(capsys):
    args = ("verify", "--grid", "0.9:1.5:2,0.9:1.5:2,1:1:1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_scal_sign_is_the_certificate_s_sign(capsys):
    # one exact sign: "positive" passes, "zero" and "negative" are skipped,
    # also within relative 1e-12 of the wall
    cases = (("1:1:1,1:1:1,0.5000000000001:0.5000000000001:1", "positive", "pass"),
             ("1e20:1e20:1,1:1:1,1:1:1", "positive", "pass"),
             ("1:1:1,1:1:1,0.5:0.5:1", "zero", "skipped"),
             ("1:1:1,1:1:1,0.4999999999999:0.4999999999999:1", "negative", "skipped"))
    for grid, sign, status in cases:
        code, out, _ = run_cli(capsys, "verify", "--grid", grid)
        assert code == 0
        (point,) = json.loads(out)["results"]["points"]
        assert (point["scal_sign"], point["status"]) == (sign, status), grid


def test_verify_readme_grid_sign_agrees_with_status(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "0.5:2:5,0.5:2:5,0.5:2:5")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["summary"] == {"pass": 71, "fail": 0, "skipped": 54}
    for point in res["points"]:
        assert (point["scal_sign"] == "positive") == (point["status"] == "pass"), point["metric"]


def _around(triple, exponent):
    """A 2 x 2 x 2 grid from 0.95 to 1.05 times each entry, scaled by 2^exponent."""
    return ",".join(f"{math.ldexp(0.95 * x, exponent)!r}:{math.ldexp(1.05 * x, exponent)!r}:2" for x in triple)


@pytest.mark.parametrize("grid", [
    # certified exactly, so each point passes with the certificate's 20
    # steps, though far beyond unit scale: the level-30 Gershgorin rows of
    # the first point and (b + c)^2 of the second overflow, and ab, so C,
    # does in the last three
    "1e153:1e153:1,1e153:1e153:1,1e153:1e153:1",
    "1e154:1e154:1,1e154:1e154:1,0.6e154:0.6e154:1",
    "1.3e160:1.3e160:1,0.8e160:0.8e160:1,0.9e160:0.9e160:1",
    "1e200:1e200:1,1e200:1e200:1,1e200:1e200:1",
    _around((1.3, 0.8, 0.9), 600),
], ids=["1e153", "1e154", "1.3e160", "1e200", "2^+600"])
def test_verify_far_above_unit_scale_passes(capsys, grid):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", "--grid", grid)
    assert (code, err) == (0, "")
    points = json.loads(out)["results"]["points"]
    assert [(p["scal_sign"], p["status"], p["checks"]) for p in points] == [("positive", "pass", 13)] * len(points)
    assert all(p["min_margin"] > 0 for p in points)


def test_verify_has_no_rep_level(capsys):
    # the representation cross-check and its level cap are gone: the option
    # is a usage error and the document carries no rep_level
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--grid", "1:1:1,1:1:1,1:1:1", "--rep-level", "8"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --rep-level 8" in err
    code, out, _ = run_cli(capsys, "verify", "--grid", "1:1:1,1:1:1,1:1:1")
    assert code == 0 and "rep_level" not in out


def test_smallest_answers_by_the_theorem_without_the_row_table(capsys, monkeypatch):
    # a certified smallest rests on the exact gate alone: with the row table
    # made to fail, it still certifies on every manifold, in the library and
    # in the CLI, while the certificate itself fails
    from dirac3sphere import gershgorin

    def broken(m, *tables):
        raise d3s.CertificationError("the row table ran")

    monkeypatch.setattr(gershgorin, "_certificate", broken)
    m = Metric(1.3, 0.8, 0.9)
    for manifold, want in (("s3", m.mu), ("so3-trivial", d3s.invariants(m).C), ("so3-nontrivial", m.mu)):
        for certify in (False, True):
            report = d3s.smallest(m, manifold, certify=certify)
            assert (report.certified, report.method, report.value) == (True, "closed-form", want)
        code, out, err = run_cli(capsys, "smallest", "--metric", "1.3,0.8,0.9", "--manifold", manifold)
        assert (code, err, json.loads(out)["results"]["value"]) == (0, "", want)
    with pytest.raises(d3s.CertificationError, match="the row table ran"):
        d3s.certify_fundamental_tone(m)


def _gate_metrics():
    """Log-uniform metrics on [1/4, 4]^3, then metrics on the scal = 0 wall
    (the third entry an exact ratio) and one relative 1e-13 either side of
    it, then the first ten scaled by 2^600 and by 2^-600."""
    rng = np.random.default_rng(51)
    log_uniform = np.exp(rng.uniform(math.log(0.25), math.log(4.0), (72, 3)))
    metrics = [Metric(*t) for t in log_uniform[:60]]
    for p, q in log_uniform[60:, :2]:
        wall = Fraction(p) * Fraction(q) / (Fraction(p) + Fraction(q))
        metrics += [Metric(p, q, wall)] + [Metric(p, q, float(wall) * f) for f in (1 - 1e-13, 1 + 1e-13)]
    return metrics + [Metric(*(math.ldexp(x, e) for x in t)) for t in log_uniform[:10] for e in (600, -600)]


def _written(m):
    return ",".join(f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else repr(x) for x in m._written)


def test_certified_smallest_is_the_certificate_s_verdict_with_its_values(capsys):
    # certified exactly where the certificate passes, and the payload's
    # values are the trace's, on random metrics, at the wall and far from
    # unit scale
    outcomes = set()
    for m in _gate_metrics():
        try:
            trace = d3s.certify_fundamental_tone(m)
        except d3s.UncertifiableError:
            trace = None
        outcomes.add(trace is not None)
        for manifold in ("s3", "so3-trivial", "so3-nontrivial"):
            try:
                certified = d3s.smallest(m, manifold, certify=True).certified
            except d3s.UncertifiableError:
                certified = False
            assert certified == (trace is not None), (m.triple(), manifold)
            if max(m.triple()) < 1e100:  # at 2^600 an enumeration overflows, and scal does
                assert d3s.smallest(m, manifold, max_level=4).certified == certified, (m.triple(), manifold)
        if trace is None:
            continue
        want = {"sorted_metric": list(trace.sorted_triple), "permutation": list(trace.permutation),
                "C": trace.C, "mu": trace.mu, "scal": trace.scal, "theorem": cli._THEOREM}
        assert cli._certification(m) == want, m.triple()
        if max(m.triple()) < 1e100:
            code, out, _ = run_cli(capsys, "smallest", "--metric", _written(m), "--manifold", "s3", "--certify", "on")
            assert (code, json.loads(out)["results"]["certification"]) == (0, want), m.triple()
    assert outcomes == {True, False}


def test_verify_details_prints_the_certificate_s_step_records(capsys):
    # a one-point grid prints one metric's rows: what smallest printed up to
    # schema 6, now in verify alone
    steps = [{"name": s.name, "detail": s.detail, "margin": s.margin}
             for s in d3s.certify_fundamental_tone(Metric(1.3, 0.8, 0.9)).steps]
    _, out, _ = run_cli(capsys, "verify", "--grid", "1.3:1.3:1,0.8:0.8:1,0.9:0.9:1", "--details")
    (point,) = json.loads(out)["results"]["points"]
    assert point["steps"] == steps
    assert point["min_margin"] == min(step["margin"] for step in steps)
    assert len(steps) == 13 and all(list(step) == ["name", "detail", "margin"] for step in steps)


def test_readme_schema_and_step_record_match_the_code():
    # the README's schema block pins the version, and every step record it
    # names is the one the CLI prints
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^### JSON document schema\n.*?^```\n(.*?)^```", text, re.S | re.M).group(1)
    assert int(re.search(r'"schema_version": (\d+)', block).group(1)) == cli.SCHEMA_VERSION
    records = re.findall(r"`\{(name,\s*detail,\s*margin[^}]*)\}`", text)
    printed = list(cli._step_record(CertificationStep("name", "detail", 1.0)))
    assert records and all(re.split(r",\s*", record) == printed for record in records), records


def test_spectrum_without_admissible_levels_is_empty(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--metric", "1,1,1", "--manifold", "so3-nontrivial", "--max-level", "0")
    assert code == 0
    results = json.loads(out)["results"]
    assert results == {"max_level": 0, "max_radius": 0.0, "count": 0, "lines": []}


def test_parser_is_built_once_and_reused(capsys):
    calls = [
        ("invariants", "--metric", "1.3,0.8,0.6"),
        ("spectrum", "--metric", "1.3,0.8,0.6", "--manifold", "s3", "--max-level", "3"),
        ("smallest", "--metric", "1.3,0.8,0.9", "--manifold", "so3-trivial"),
        ("heat-trace", "--metric", "1,1,1", "--manifold", "s3", "--t", "0.5", "--max-level", "6", "--lam", "3"),
        ("reconstruct", "--manifold", "s3", "--volume", "19.739208802178716", "--scal", "6", "--mu", "1.5"),
        ("verify", "--grid", "0.9:1.5:2,1:1:1,0.8:0.8:1", "--details"),
        ("spectrum", "--metric", "1,1,1", "--manifold", "s3"),  # usage error: no --max-level
    ]

    def one_round():
        results = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    first = one_round()
    assert [code for code, _, _ in first] == [0] * 6 + [2]
    assert one_round() == first
    from dirac3sphere import cli

    assert cli._build_parser() is cli._build_parser()


#: each subcommand's echoed options: exactly the settable options that act
#: on it, apart from --metric, --manifold and --grid, which the document
#: carries elsewhere
OPTIONS = {
    "invariants": ("invariants --metric 1,1,1", []),
    "spectrum": ("spectrum --metric 1,1,1 --manifold s3 --max-level 1", ["format", "max_level"]),
    "smallest": ("smallest --metric 1,1,1 --manifold s3", ["certify", "max_level"]),
    "heat-trace": ("heat-trace --metric 1,1,1 --manifold s3 --t 1 --max-level 2", ["lam", "max_level", "t"]),
    "reconstruct": ("reconstruct --manifold s3 --volume 19.739208802178716 --scal 6 --mu 1.5",
                    ["a2tilde", "c", "mu", "scal", "volume"]),
    "verify": ("verify --grid 1:1:1,1:1:1,1:1:1", ["details"]),
}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_each_document_echoes_only_its_own_options(capsys, command):
    argv, keys = OPTIONS[command]
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    doc = json.loads(out)
    assert (doc["schema_version"], doc["command"], list(doc["options"])) == (7, command, keys)


@pytest.mark.parametrize("argv, message", [
    ("spectrum --metric 0,1,1 --manifold s3 --max-level 2",
     "argument --metric: metric parameter a must be a positive finite real, got 0.0"),
    ("smallest --metric 1,1,-1 --manifold s3",
     "argument --metric: metric parameter c must be a positive finite real, got -1.0"),
    ("invariants --metric 1,1", "argument --metric: metric must have three components, got '1,1'"),
    ("verify --grid 1:2:0,1:1:1,1:1:1", "argument --grid: bad axis '1:2:0'"),
    ("verify --grid 1:1:1,1:1:1", "argument --grid: grid must have three axes, got '1:1:1,1:1:1'"),
])
def test_bad_metric_or_grid_is_a_usage_error_of_its_subcommand(capsys, argv, message):
    # argparse reads both, so the subcommand's parser refuses them with the parse error's message
    command = argv.split()[0]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith(f"usage: dirac3sphere {command} ")
    assert err.splitlines()[-1] == f"dirac3sphere {command}: error: {message}"


@pytest.mark.parametrize("argv, refusal", [
    ("spectrum --metric 1,1,1 --manifold s3 --max-level 0 --timing", "unrecognized arguments: --timing"),
    ("invariants --metric 1,1,1 --timing", "unrecognized arguments: --timing"),
    ("invariants --metric 1,1,1 --format json", "unrecognized arguments: --format json"),
    ("verify --grid 1:1:1,1:1:1,1:1:1 --format json", "unrecognized arguments: --format json"),
    ("smallest --metric 1,1,1 --manifold s3 --certify off", "argument --certify: invalid choice: 'off'"),
])
def test_removed_options_are_usage_errors(capsys, argv, refusal):
    # --timing, --format outside spectrum and --certify off are gone
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert refusal in err


def test_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "dirac3sphere.cli", "invariants", "--metric", "2,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["mu"] == pytest.approx(1.75)
