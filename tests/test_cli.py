import json

import pytest

from simdiff import cli
from simdiff.cli import main
from simdiff.complexes import build_standard
from simdiff.diffhat import exactness_certificate
from simdiff.report import Check, Report


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, expected", [
    (("--space", "rp2", "--degree", "2", "--coeffs", "Z"), {"torsion": [2], "pretty": "Z/2"}),
    (("--space", "rp2", "--degree", "2", "--coeffs", "Q"), {"torsion": [], "pretty": "0"}),
    (("--space", "torus", "--degree", "1"), {"free_rank": 2, "pretty": "Z^2"}),
    (("--space", "circle", "--param", "n=5", "--degree", "1"), {"free_rank": 1}),
    (("--space", "sphere2", "--degree", "7"), {"pretty": "0"}),
])
def test_cohomology_prints_the_presentation(capsys, argv, expected):
    code, out, err = run(capsys, "cohomology", *argv)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert set(data) == {"free_rank", "torsion", "divisible_rank", "circle_rank", "pretty"}
    assert {k: data[k] for k in expected} == expected


@pytest.mark.parametrize("argv", [
    ("--space", "klein", "--degree", "1"),
    ("--space", "circle", "--param", "n=2", "--degree", "1"),
    ("--space", "circle", "--param", "n=many", "--degree", "1"),
    ("--space", "circle", "--param", "n", "--degree", "1"),
    ("--space", "pt", "--param", "n=3", "--degree", "0"),
    ("--space", "delta_k", "--param", "k=-1", "--degree", "0"),
    ("--space", "rp2", "--degree", "two"),
    ("--space", "rp2", "--degree", "-1"),
    ("--space", "rp2", "--degree", "1", "--coeffs", "R"),
    ("--space", "rp2", "--degree", "1", "--coeffs", "Z/x"),
    ("--space", "rp2", "--degree", "1", "--coeffs", "Z/1"),
    ("--space", "rp2", "--degree", "1", "--coeffs", "Z/2"),
    ("--space", "rp2"),
    ("--degree", "1"),
])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, "cohomology", *argv)
    assert code == 2 and out == ""
    assert err.startswith("simdiff: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [(), ("bench",), ("cohomology", "--bogus"), ("cert", "--bogus")])
def test_bad_command_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1


@pytest.mark.parametrize("argv, witness", [
    (("--space", "torus", "--degree", "2"),
     {"space": "torus", "degree": 2, "model": "plain"}),
    (("--space", "circle", "--param", "n=5", "--degree", "1", "--model", "sheared",
      "--trials", "1", "--seed", "4"),
     {"space": "circle5", "degree": 1, "model": "sheared"}),
    (("--space", "circle", "--degree", "1", "--model", "halved", "--trials", "2"),
     {"space": "circle3", "degree": 1, "model": "halved"}),
    (("--space", "pt", "--degree", "1", "--trials", "0"),
     {"space": "pt", "degree": 1, "model": "plain"}),
])
def test_cert_prints_the_report(capsys, argv, witness):
    code, out, err = run(capsys, "cert", *argv)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert set(data) == {"subject", "trials", "seed", "ok", "results", "witness"}
    assert data["ok"] and data["witness"] == witness
    assert [c["axiom"] for c in data["results"]][0] == "underlying-class-surjective"


def test_cert_output_is_the_certificate(capsys):
    code, out, _ = run(capsys, "cert", "--space", "rp2", "--degree", "2",
                       "--trials", "2", "--seed", "11")
    expected = exactness_certificate(build_standard("rp2"), 2, trials=2, seed=11)
    assert code == 0 and json.loads(out) == expected.to_json()


def test_cert_exits_1_when_a_check_fails(capsys, monkeypatch):
    failing = Report("exactness(pt, deg 1)", 1, 0, [Check("claim", False, 1, {"trial": 0})])
    monkeypatch.setattr(cli, "exactness_certificate", lambda *args: failing)
    code, out, err = run(capsys, "cert", "--space", "pt", "--degree", "1")
    assert code == 1 and err == ""
    assert json.loads(out) == failing.to_json()


@pytest.mark.parametrize("argv", [
    ("--space", "klein", "--degree", "1"),
    ("--space", "circle", "--param", "n=2", "--degree", "1"),
    ("--space", "torus", "--degree", "0"),
    ("--space", "torus", "--degree", "-1"),
    ("--space", "torus", "--degree", "two"),
    ("--space", "torus", "--degree", "1", "--model", "skewed"),
    ("--space", "torus", "--degree", "1", "--model", "halved"),
    ("--space", "torus", "--degree", "1", "--trials", "-1"),
    ("--space", "torus", "--degree", "1", "--trials", "many"),
    ("--space", "torus", "--degree", "1", "--seed", "x"),
    ("--space", "torus", "--degree", "1", "--coeffs", "Q"),
    ("--space", "torus"),
])
def test_cert_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, "cert", *argv)
    assert code == 2 and out == ""
    assert err.startswith("simdiff: error: ") and err.count("\n") == 1
