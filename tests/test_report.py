"""Every check battery returns the one Report record."""

import json

import pytest

from simdiff.character import (
    CharacterModel,
    arrow_equation_report,
    composition_equation_report,
    halved_weak_inverse,
    integration_witness_report,
    suspension_consistency,
)
from simdiff.cochains import INTEGERS
from simdiff.complexes import circle
from simdiff.diffhat import exactness_certificate
from simdiff.em import check_iota_compatibility
from simdiff.groupoid import MappingGroupoid
from simdiff.moncat import (
    AxiomResult,
    CoherenceReport,
    check_coherence,
    check_monoidal_functor,
    identity_functor,
    skeletal_instance,
)
from simdiff.refine import (
    build_tilde,
    check_equivalence,
    derive_B,
    identity_comparison,
    with_cell_defect,
)
from simdiff.report import Check, Report
from simdiff.subdiv import covering, rotation


def circle_groupoid():
    return MappingGroupoid(circle(3), INTEGERS, 1)


def arrow_report(seed):
    model = CharacterModel("plain")
    chN = model.character(circle_groupoid())
    chM = model.character(MappingGroupoid(circle(6), INTEGERS, 1))
    return arrow_equation_report(model, model.arrow(chM, chN, covering(3, 2)),
                                 trials=2, seed=seed)


def composition_report(seed):
    model = CharacterModel("plain")
    chN = model.character(circle_groupoid())
    chM = model.character(MappingGroupoid(circle(6), INTEGERS, 1))
    return composition_equation_report(model, chM, chN, chN, covering(3, 2),
                                       rotation(3), trials=2, seed=seed)


def tilde():
    return build_tilde(circle(3), 1)


def additivity_report(seed):
    G = tilde()
    cell = derive_B(G, G, lambda x: x).with_defect("units")
    return cell.check_identities(seed=seed, trials=2)


# one small fixture per producer; several are corrupted so that failing
# checks, with their counterexamples, go through the record too
PRODUCERS = {
    "check_coherence": lambda seed: check_coherence(
        skeletal_instance(2, lambda g, h, k: g * h), trials=4, seed=seed),
    "check_monoidal_functor": lambda seed: check_monoidal_functor(
        identity_functor(circle_groupoid().as_instance()), 2, seed),
    "weak_inverse": lambda seed: halved_weak_inverse(
        degree=1, trials=2, seed=seed)[1].report,
    "check_iota_compatibility": lambda seed: check_iota_compatibility(
        INTEGERS, 1, scale_upper=2),
    "exactness_certificate": lambda seed: exactness_certificate(
        circle(3), 1, trials=2, seed=seed),
    "check_equivalence": lambda seed: check_equivalence(
        with_cell_defect(identity_comparison(tilde()), "units"),
        seed=seed, trials=2),
    "check_identities": additivity_report,
    "integration_witness_report": lambda seed: integration_witness_report(
        circle_groupoid(), trials=2, seed=seed),
    "suspension_consistency": lambda seed: suspension_consistency(
        circle_groupoid(), trials=2, seed=seed),
    "arrow_equation_report": arrow_report,
    "composition_equation_report": composition_report,
    "strictness_report": lambda seed: circle_groupoid().strictness_report(seed),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_every_battery_returns_one_record(name):
    report = PRODUCERS[name](5)
    assert isinstance(report, Report)
    assert all(isinstance(c, Check) for c in report.results) and report.results
    names = [c.axiom for c in report.results]
    assert len(set(names)) == len(names)
    assert report.ok == all(c.ok for c in report.results)
    assert report.failures() == [c for c in report.results if not c.ok]
    data = report.to_json()
    assert data["ok"] == report.ok
    assert [r["axiom"] for r in data["results"]] == names
    blob = json.dumps(data)
    assert json.dumps(PRODUCERS[name](5).to_json()) == blob


def test_corrupted_fixtures_fail_exactly_their_checks():
    failed = {name: [c.axiom for c in PRODUCERS[name](5).failures()]
              for name in ("check_coherence", "check_iota_compatibility",
                           "check_equivalence", "check_identities")}
    assert failed == {
        "check_coherence": ["hexagon"],
        "check_iota_compatibility": ["loop-identity:0"],
        "check_equivalence": ["monoidal-cells:units"],
        "check_identities": ["units"],
    }


# check_coherence(skeletal_instance(2, g*h), trials=3, seed=6).to_json(),
# as the battery serialized it before the record was shared
PINNED = {
    "subject": "skeletal(Z/2)", "trials": 3, "seed": 6, "ok": False,
    "results": [
        {"axiom": "pentagon", "ok": True, "checked": 3},
        {"axiom": "triangle", "ok": True, "checked": 3},
        {"axiom": "hexagon", "ok": False, "checked": 1,
         "counterexample": {"trial": 0, "a": "1", "b": "1", "c": "1"}},
        {"axiom": "braid-involutive", "ok": True, "checked": 3},
        {"axiom": "naturality-associator", "ok": True, "checked": 3},
        {"axiom": "naturality-left-unitor", "ok": True, "checked": 3},
        {"axiom": "naturality-right-unitor", "ok": True, "checked": 3},
        {"axiom": "naturality-braid", "ok": True, "checked": 3},
    ],
}


def test_coherence_json_is_unchanged():
    report = check_coherence(skeletal_instance(2, lambda g, h, k: g * h),
                             trials=3, seed=6)
    assert json.dumps(report.to_json()) == json.dumps(PINNED)


def test_witness_is_left_out_when_absent():
    check = Check("law", True, 2, witness={"rank": 1})
    assert check.to_json() == {"axiom": "law", "ok": True, "checked": 2,
                               "witness": {"rank": 1}}
    report = Report("subject", 2, 0, [check], {"note": "x"})
    assert list(report.to_json()) == ["subject", "trials", "seed", "ok",
                                      "results", "witness"]
    assert "witness" not in Report("subject", 2, 0, []).to_json()
    with pytest.raises(KeyError):
        report.result("missing")


def test_moncat_names_are_the_record():
    # the benchmark harness builds reports positionally under these names
    report = CoherenceReport("fake", 1, 7, [AxiomResult("hexagon", False, 1, {"trial": 0})])
    assert isinstance(report, Report) and report.failures()[0].axiom == "hexagon"
    assert report.to_json()["results"] == [
        {"axiom": "hexagon", "ok": False, "checked": 1, "counterexample": {"trial": 0}}]
