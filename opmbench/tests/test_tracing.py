import pytest

import tracing
from tracing import Span


def span(i, name, start, end, parent=None, size=None, meta=None):
    return Span(i, name, start, end, parent, 0, size, meta)


def test_self_time_subtracts_nested_children():
    spans = [span(0, "job", 0.0, 10.0), span(1, "bind", 1.0, 4.0, 0),
             span(2, "factorize", 2.0, 3.0, 1), span(3, "sweep", 5.0, 9.0, 0)]
    own = tracing.self_times(spans)
    assert own == {0: pytest.approx(3.0), 1: pytest.approx(2.0), 2: pytest.approx(1.0),
                   3: pytest.approx(4.0)}


def test_overlapping_children_count_once_and_are_clipped():
    # two children overlap each other (e.g. worker threads) and one runs
    # past its parent's end: the parent keeps only the uncovered time
    spans = [span(0, "job", 0.0, 10.0), span(1, "a", 2.0, 6.0, 0),
             span(2, "b", 4.0, 8.0, 0), span(3, "c", 9.0, 12.0, 0)]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert min(own.values()) >= 0.0


def test_outermost_counts_one_call_for_nested_same_layer():
    spans = [span(0, "job", 0, 5), span(1, "lint", 1, 3, 0), span(2, "lint", 1.5, 2.5, 1),
             span(3, "lint", 3.5, 4, 0)]
    assert [s.id for s in tracing.outermost(spans, "lint")] == [1, 3]


def test_wrappers_record_parent_size_and_job():
    tracer = tracing.Tracer()

    def inner(x):
        return x * 2

    traced_inner = tracer.wrap(inner, "inner", size=lambda a, k, r: a[0])
    traced_outer = tracer.wrap(lambda x: traced_inner(x) + 1, "outer")
    tracer.job = 7
    assert traced_outer(3) == 7
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].size == 3.0
    assert {s.job for s in tracer.spans} == {7}


def test_patch_keeps_classmethods_and_module_aliases():
    import types

    class Thing:
        @classmethod
        def make(cls, text):
            return cls, len(text)

    home = types.ModuleType("home")
    home.fn = lambda: 1
    alias = types.ModuleType("alias")
    alias.fn = home.fn
    tracer = tracing.Tracer()
    tracing.patch(tracer, [Thing], "make", "parse", size=lambda a, k, r: len(a[1]))
    tracing.patch(tracer, [home, alias], "fn", "f")
    assert Thing.make("abc") == (Thing, 3)
    assert alias.fn() == 1 and home.fn is alias.fn
    assert [(s.name, s.size) for s in tracer.spans] == [("parse", 3.0), ("f", None)]


def test_dumped_spans_merge_with_offset(tmp_path):
    tracer = tracing.Tracer()
    with tracer.span("job"):
        with tracer.span("parse"):
            pass
    tracer.dump(tmp_path / "s.json")
    merged = tracing.load_spans(tmp_path / "s.json", id_offset=10)
    ids = {s.name: s.id for s in merged}
    assert ids == {"job": 10, "parse": 11}
    assert {s.name: s.parent for s in merged}["parse"] == 10


def test_layer_metrics_reads_zero_for_layers_never_entered():
    metrics = tracing.layer_metrics([])
    assert metrics["parse.calls"] == 0 and metrics["sweep.m_exponent"] == 0.0
