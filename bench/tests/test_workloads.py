from dataclasses import replace

import pytest

from bench import run, workloads
from simdiff import moncat


@pytest.fixture(scope="module")
def ready():
    """One set-up instance per (workload, seed)."""
    made = {}

    def get(name, seed):
        if (name, seed) not in made:
            wl = workloads.WORKLOADS[name](seed)
            wl.setup()
            made[name, seed] = wl
        return made[name, seed]

    return get


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(ready, name):
    def keys(seed):
        wl = ready(name, seed)
        return [wl.input_key(wl.make_input(i)) for i in range(3)]

    assert keys(1) == keys(1)
    assert keys(1) != keys(2)


def test_same_seed_same_answers_and_they_pass_their_checks(ready):
    digests = []
    for _ in range(2):
        wl = workloads.CohomologyFresh(7)
        wl.setup()
        answers = []
        for i in range(2):
            inp = wl.make_input(i)
            ans = wl.run(inp)
            assert wl.check(inp, ans) is None
            answers.append(wl.answer_key(inp, ans))
        digests.append(run._digest(answers))
    assert digests[0] == digests[1]


def test_hat_compare_builds_equal_and_unequal_pairs_and_checks_both(ready):
    wl = ready("hat-compare", 1)
    seen = set()
    for i in range(2):
        pair = wl.make_input(i)
        assert pair.truth == (i % 2 == 0)
        comp = wl.run(pair)
        assert wl.check(pair, comp) is None
        # a flipped decision is caught
        assert wl.check(pair, replace(comp, equal=not comp.equal)) is not None
        seen.add(pair.kind)
    assert "equal" in seen and len(seen) == 2


def test_hat_compare_rejects_a_wrong_witness(ready):
    wl = ready("hat-compare", 1)
    pair = wl.make_input(0)
    comp = wl.run(pair)
    shifted = replace(pair, y=wl.theory.hat(pair.y.obj, pair.y.omega + wl.ones))
    assert wl.check(shifted, replace(comp, equal=True)) is not None


def test_cohomology_check_rejects_a_wrong_presentation(ready):
    wl = ready("cohomology-fresh", 1)
    rp2, torus = wl.make_input(0), wl.make_input(1)
    assert rp2.surface == "rp2" and torus.surface == "torus7"
    assert wl.check(rp2, wl.run(torus)) is not None
    P, groups = wl.run(rp2)
    assert wl.check(rp2, (P, groups)) is None
    assert wl.check(rp2, (P, groups[:-1])) is not None


def test_coherence_check_rejects_a_failed_or_missing_axiom(ready):
    wl = ready("coherence-battery", 1)
    s = wl.make_input(0)
    report = moncat.CoherenceReport("fake", 1, s, [
        moncat.AxiomResult(a, True, 1) for a in wl.AXIOMS])
    assert wl.check(s, report) is None
    report.results[2] = moncat.AxiomResult("hexagon", False, 1, {"trial": 0})
    assert "hexagon" in wl.check(s, report)
    report.results = report.results[:3]
    assert wl.check(s, report) is not None


def test_setup_reports_input_sizes(ready):
    assert ready("hat-compare", 1).size()["generators_per_degree"]["torus x D2"] == [
        27, 189, 405, 351, 108]
    assert ready("cohomology-fresh", 1).size()["generators_per_degree"]["rp2 x D1"] == [
        12, 51, 70, 30]
