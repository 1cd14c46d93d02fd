from perfbench.trace import NULL, Span, Tracer, own_times


def test_own_time_subtracts_children():
    spans = [
        Span("op", 0, None, 0.0, 10.0),
        Span("load", 0, 0, 1.0, 3.0),
        Span("finder", 0, 0, 3.0, 9.0),
        Span("explain", 0, 2, 3.5, 5.5),
        Span("explain", 0, 2, 6.0, 8.0),
    ]
    assert own_times(spans) == [2.0, 2.0, 2.0, 2.0, 2.0]


def test_tracer_records_parents_and_wraps_methods():
    ticks = iter(range(100))
    tracer = Tracer(op=4, clock=lambda: float(next(ticks)))

    class Finder:
        def explain(self, x):
            return x * 2

    finder = Finder()
    with tracer.span("finder"):
        tracer.wrap(finder, "explain", "finder.explain")
        assert finder.explain(3) == 6
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("finder", None, 4),
        ("finder.explain", 0, 4),
    ]
    assert all(s.end > s.start for s in tracer.spans)


def test_null_tracer_leaves_methods_alone():
    class Finder:
        def explain(self):
            return 1

    finder = Finder()
    NULL.wrap(finder, "explain", "finder.explain")
    assert "explain" not in vars(finder)
    with NULL.span("anything"):
        pass
