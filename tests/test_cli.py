import json
import math
import warnings

import pytest

import dirac3sphere as d3s
from dirac3sphere import Metric
from dirac3sphere.cli import main, parse_grid, parse_metric

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
    assert doc["schema_version"] == 3
    assert doc["command"] == "spectrum"
    assert doc["metric"] == [1, 1, 1]
    assert doc["timing_seconds"] is None
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
    # an OverflowError and a ZeroDivisionError deep in the invariants
    code, out, err = run_cli(capsys, "invariants", "--metric", metric)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "double range" in err
    assert err.count("\n") == 1


def test_non_finite_document_is_an_error(capsys):
    # certification margins beyond the double range reach the encoder as inf
    code, out, err = run_cli(capsys, "smallest", "--metric", "1e62,1e62,1e62", "--manifold", "s3")
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
    ("verify --grid 1:1:1,1:1:1,1:1:1 --rep-level -1", 2),
    ("reconstruct --manifold s3 --volume 0 --scal 6 --mu 1.5", 2),
    ("reconstruct --manifold s3 --volume inf --scal 6 --mu 1.5", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal inf --mu 1.5", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal 6 --mu nan", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal 6 --c -inf", 2),
    ("reconstruct --manifold s3 --volume 19.74 --scal -6 --a2tilde nan", 2),
    ("smallest --metric 1,1,0.3 --manifold so3-nontrivial --max-level 0", 1),
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


def test_smallest_overflowing_enumeration_is_an_error(capsys):
    # scal < 0 at the scale 2^600: C overflows, so the level blocks are not finite
    metric = ",".join(repr(2.0 ** 600 * x) for x in (1.3, 0.8, 0.3))
    for manifold in ("s3", "so3-trivial", "so3-nontrivial"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "smallest", "--metric", metric, "--manifold", manifold)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not finite" in err


def test_smallest_huge_entry_answers_without_warnings(capsys):
    # the level bounds overflow at even levels; those levels are examined, not pruned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "smallest", "--metric", "1e200,1,1", "--manifold", "s3")
    assert code == 0
    assert err == ""
    res = json.loads(out)["results"]
    assert res["value"] == 2.0
    assert res["multiplicity_d_squared"] == 4
    assert dense_min_abs(Metric(1e200, 1, 1), "s3", 25)[:2] == (2.0, 4)


def test_smallest_round(capsys):
    code, out, _ = run_cli(capsys, "smallest", "--metric", "1,1,1", "--manifold", "s3")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["value"] == pytest.approx(1.5)
    assert res["multiplicity_d_squared"] == 4
    assert res["certified"] is True
    assert res["certification"]["passed"] is True
    assert res["certification"]["min_margin"] > 0


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
        capsys, "verify", "--grid", "0.8:1.6:2,0.8:1.6:2,0.8:1.6:2", "--rep-level", "4"
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
    args = ("verify", "--grid", "0.9:1.5:2,0.9:1.5:2,1:1:1", "--rep-level", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_timing_flag(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--metric", "1,1,1", "--manifold", "s3", "--max-level", "0", "--timing"
    )
    doc = json.loads(out)
    assert doc["timing_seconds"] > 0


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
