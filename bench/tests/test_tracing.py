import pytest

from bench import run, tracing
from bench.tracing import OP, SETUP, Tracer, repeat_share, roots, self_times
from simdiff import cochains, cohomology, complexes, exact, groupoid


def span(name, start, end, parent=-1):
    return (name, float(start), float(end), parent)


def test_self_time_without_children_is_duration():
    assert self_times([span("a", 1, 4)]) == [3.0]


def test_self_time_subtracts_nested_children_once():
    spans = [span("a", 0, 10), span("b", 2, 8, 0), span("c", 3, 5, 1)]
    assert self_times(spans) == [4.0, 4.0, 2.0]


def test_self_time_back_to_back_and_zero_length_children():
    spans = [span("a", 0, 10), span("b", 1, 3, 0), span("c", 3, 6, 0),
             span("d", 6, 6, 0), span("e", 9, 9, 0)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 0.0, 0.0]


def test_self_time_clips_and_merges_overlapping_children():
    spans = [span("a", 0, 10), span("b", 2, 6, 0), span("c", 4, 7, 0),
             span("d", 9, 12, 0)]
    assert self_times(spans)[0] == 10 - 5 - 1


def test_roots_follow_parents_to_the_outermost_span():
    spans = [span("a", 0, 9), span("b", 1, 2, 0), span("c", 1, 2, 1),
             span("d", 3, 4), span("e", 3, 4, 3)]
    assert roots(spans) == [0, 0, 0, 3, 3]


def test_repeat_share_counts_keys_seen_before():
    assert repeat_share([]) == 0.0
    assert repeat_share(["a", "b", "c"]) == 0.0
    assert repeat_share(["a", "b", "a", "c", "b", "a"]) == 0.5


def test_snf_repeat_share_on_a_hand_built_call_sequence():
    A, B = [[2, 4], [6, 8]], [[1, 0], [0, 3]]
    tracer = Tracer()
    with tracer.installed():
        with tracer.span(SETUP):
            exact.smith_normal_form(A)
        with tracer.span(OP):
            exact.smith_normal_form(B)
            exact.smith_normal_form([row[:] for row in A])
        with tracer.span(OP):
            exact.smith_normal_form(B)
        with tracer.span(tracing.CHECK):
            exact.smith_normal_form(A)  # checks are not measured
    metrics = tracing.layer_metrics(tracer, ops=2)
    assert metrics["exact.snf_repeat_share"] == (0.5, "ratio")
    assert metrics["exact.smith_normal_form.calls"] == (1.5, "count/op")
    assert metrics["exact.smith_normal_form.entries"] == (6.0, "count/op")
    assert tracing.snf_shapes(tracer) == {"2x2": 3}
    assert tracing.snf_repeat_across_ops(tracer) == pytest.approx(1 / 3)


def test_install_wraps_every_binding_and_uninstall_restores_originals():
    original_snf = exact.smith_normal_form
    original_init = groupoid.MapObject.__init__
    tracer = Tracer()
    tracer.install()
    try:
        patches = list(tracer.patches)
        # functions are replaced in every module that imported them
        assert cohomology.smith_normal_form.__bench_original__ is original_snf
        assert groupoid.smith_normal_form is exact.smith_normal_form
        assert vars(groupoid.MapObject)["__init__"].__bench_original__ is original_init
        # per-element functions are left alone
        assert not hasattr(cochains.Cochain.eval, "__bench_original__")
        assert not hasattr(cochains.Coefficients.normalize, "__bench_original__")
    finally:
        tracer.uninstall()
    assert len(patches) >= len(tracing.TARGETS)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
    assert exact.smith_normal_form is original_snf
    assert cohomology.smith_normal_form is original_snf
    assert groupoid.MapObject.__init__ is original_init


def test_wrapped_calls_nest_under_the_open_span():
    X = complexes.circle(3)
    c = cochains.Cochain(X, 0, cochains.INTEGERS, {"v0": 1})
    tracer = Tracer()
    with tracer.installed():
        with tracer.span(OP):
            cochains.coboundary(c)
    assert [(name, parent) for name, _, _, parent in tracer.spans()] == [
        (OP, -1), ("cochains.coboundary", 0)]


def test_untraced_run_never_installs_the_tracer(monkeypatch):
    def refuse(self):
        raise AssertionError("tracer installed in an untraced run")

    monkeypatch.setattr(Tracer, "install", refuse)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    rec = run.run_workload("cohomology-fresh", seed=1, seconds=0.2, trace=False)
    assert rec["failed"] == 0 and rec["completed"] >= 1
    assert len(rec["setup_times"]) == 1 and rec["setup_times"][0] > 0
    assert rec["tracer"] is None
    assert not hasattr(exact.smith_normal_form, "__bench_original__")
