import json

import pytest

from simdiff.cli import main


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


@pytest.mark.parametrize("argv", [(), ("bench",), ("cohomology", "--bogus")])
def test_bad_command_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.count("\n") == 1
