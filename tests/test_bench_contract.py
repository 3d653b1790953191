"""The benchmark still finds every simdiff name it uses.

The benchmark lives in bench/, outside the test paths, so deleting or
renaming a name in simdiff could break it while every test here passes.
These tests install and uninstall the benchmark's tracer, whose install
raises KeyError when a name in its TARGETS has gone, and resolve the names
the workloads read, running cochain_key on a cochain the kernel built.  A
traced hat-compare, coherence-battery or cohomology-fresh op must still
open the spans of the layers its per-layer numbers are read from.  A traced
hat-compare set-up and its first ops must factor no matrix larger than
the base's coboundaries.
"""

import importlib
import sys
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import tracing, workloads  # noqa: E402
from simdiff import complexes, diffhat, moncat  # noqa: E402
from simdiff.cochains import Cochain, INTEGERS, coboundary  # noqa: E402
from simdiff.complexes import circle  # noqa: E402


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_every_target_and_puts_it_back():
    tracer = tracing.Tracer()
    try:
        tracer.install()  # KeyError when a target has gone from simdiff
        wrapped = {(m, p): resolve(m, p) for _, m, p, _ in tracing.TARGETS}
    finally:
        tracer.uninstall()
    assert not tracer.patches
    for (m, p), wrapper in wrapped.items():
        assert resolve(m, p) is wrapper.__bench_original__, (m, p)


def test_workloads_resolve_their_names():
    assert set(workloads.WORKLOADS) == {"hat-compare", "coherence-battery",
                                        "cohomology-fresh"}
    assert workloads.diffhat is diffhat and workloads.moncat is moncat
    period = diffhat.PeriodObstruction
    assert callable(period.refutes) and callable(period.pairing)
    assert isinstance(moncat.CoherenceReport, type)


def test_cochain_key_reads_a_kernel_built_cochain():
    X = circle(3)
    c = coboundary(Cochain(X, 0, INTEGERS, {"v0": 2, "v2": -1}))
    assert workloads.cochain_key(c) == [["e0", "-2"], ["e1", "-1"], ["e2", "3"]]


def test_traced_hat_compare_op_keeps_its_layers():
    w = workloads.WORKLOADS["hat-compare"](0)
    w.setup()
    pair = w.make_input(0)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span(tracing.OP):
            comp = w.run(pair)
    assert w.check(pair, comp) is None
    layer = {tracing.span_name(m, p): name for name, m, p, _ in tracing.TARGETS}
    seen = {layer[n] for n in tracer.names if n in layer}
    assert {"exact.solve", "cohomology.solve_closed_extension",
            "diffhat.homotopies"} <= seen


def test_traced_coherence_op_keeps_its_layers():
    """A coherence-battery op must still fill horns through em.moore_fill
    and build its cells through the traced groupoid operations and
    constructors."""
    w = workloads.WORKLOADS["coherence-battery"](0)
    w.setup()
    s = w.make_input(0)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span(tracing.OP):
            report = w.run(s)
    assert w.check(s, report) is None
    layer = {tracing.span_name(m, p): name for name, m, p, _ in tracing.TARGETS}
    seen = {layer[n] for n in tracer.names if n in layer}
    assert {"em.moore_fill", "groupoid.ops", "groupoid.validate"} <= seen


def test_traced_cohomology_op_keeps_its_layers():
    """A cohomology-fresh op must still reach its groups through the traced
    cohomology and factor them by the traced Smith form."""
    w = workloads.WORKLOADS["cohomology-fresh"](0)
    w.setup()
    r = w.make_input(0)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span(tracing.OP):
            got = w.run(r)
    assert w.check(r, got) is None
    layer = {tracing.span_name(m, p): name for name, m, p, _ in tracing.TARGETS}
    seen = {layer[n] for n in tracer.names if n in layer}
    assert {"exact.smith_normal_form", "cohomology.cohomology"} <= seen


def test_traced_hat_compare_factors_only_base_sized_matrices(monkeypatch):
    """Homotopies and class questions are solved on the base: no Smith form
    in set-up, the warm-up op or four ops has more rows than the torus has
    generators in any degree (the pinned system on torus x Delta^2 it used
    to factor was 351 x 81)."""
    # a fresh torus, so factorizations cached by earlier tests are seen
    monkeypatch.setattr(complexes, "torus", cache(complexes.torus.__wrapped__))
    w = workloads.WORKLOADS["hat-compare"](0)
    tracer = tracing.Tracer()
    with tracer.installed():
        w.setup()
        for i in range(-1, 4):
            pair = w.make_input(i)
            assert w.check(pair, w.run(pair)) is None
    X = w.theory.base
    assert X is complexes.torus()
    widest = max(len(X.generators(d)) for d in range(X.top_dim + 1))
    shapes = [key[:2] for idx, key in tracer.keys.items()
              if tracer.names[idx] == "exact.smith_normal_form"]
    assert shapes
    assert all(rows <= widest for rows, _ in shapes), shapes
