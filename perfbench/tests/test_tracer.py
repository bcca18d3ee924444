"""Self-time subtraction over nested spans and wrapper installation."""

import types

from hpbench.tracer import Tracer, first_arg_len


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


def test_self_time_subtracts_nested_children():
    # outer [0,10] > child [2,5] > grandchild [3,4]; outer > child2 [6,9]
    tracer = Tracer(clock=FakeClock(0, 2, 3, 4, 5, 6, 9, 10))
    tracer.enter("a.outer", "a")
    tracer.enter("b.child", "b")
    tracer.enter("c.grandchild", "c")
    assert tracer.exit() == 1
    assert tracer.exit() == 3
    tracer.enter("b.child2", "b")
    tracer.exit()
    assert tracer.exit() == 10
    assert tracer.self_time == {"a.outer": 4, "b.child": 2,
                                "c.grandchild": 1, "b.child2": 3}
    assert tracer.layer_self() == {"a": 4, "b": 5, "c": 1}
    # Self times partition the root span.
    assert sum(tracer.self_time.values()) == 10


def test_spans_record_parent_and_round():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3))
    tracer.round = 7
    tracer.enter("a.outer", "a")
    tracer.enter("a.inner", "a")
    tracer.exit()
    tracer.exit()
    by_name = {span[1]: span for span in tracer.spans}
    outer_id = by_name["a.outer"][0]
    assert by_name["a.inner"][5] == outer_id
    assert by_name["a.outer"][5] == -1
    assert {span[6] for span in tracer.spans} == {7}


class Heap:
    def malloc_run(self, sizes):
        return [self.malloc(size) for size in sizes]

    def malloc(self, size):
        return size


def test_wrapped_methods_nest_and_count_items_once_per_layer_entry():
    tracer = Tracer()
    run = tracer.wrap_method(Heap, "malloc_run", "allocator",
                             items=first_arg_len)
    one = tracer.wrap_method(Heap, "malloc", "allocator")
    try:
        assert Heap().malloc_run([8, 16, 32]) == [8, 16, 32]
    finally:
        tracer.uninstall()
    assert tracer.calls == {run: 1, one: 3}
    # The nested mallocs are inside the layer already: not recounted.
    assert tracer.items == {run: 3}
    assert Heap.malloc.__qualname__ == "Heap.malloc"
    assert not hasattr(Heap.malloc, "__wrapped__")


def test_items_of_nested_calls_count_when_not_outer_only():
    tracer = Tracer()
    run = tracer.wrap_method(Heap, "malloc_run", "program",
                             items=first_arg_len)
    one = tracer.wrap_method(Heap, "malloc", "program", outer_only=False)
    try:
        Heap().malloc_run([8, 16])
    finally:
        tracer.uninstall()
    assert tracer.items == {run: 2, one: 2}


def test_uninstall_removes_wrappers_of_inherited_methods():
    class Child(Heap):
        pass

    tracer = Tracer()
    tracer.wrap_method(Child, "malloc", "allocator")
    assert "malloc" in Child.__dict__
    tracer.uninstall()
    assert "malloc" not in Child.__dict__


def test_wrap_function_rebinds_imported_names():
    import sys

    module = types.ModuleType("repro_fake_mod")

    def work():
        return 42

    module.work = work
    importer = types.ModuleType("hpbench_fake_importer")
    importer.work = work
    sys.modules["repro._fake_a"] = module
    sys.modules["hpbench._fake_b"] = importer
    tracer = Tracer()
    try:
        name = tracer.wrap_function(module, "work", "ccencoding")
        assert importer.work() == 42
        assert tracer.calls == {name: 1}
        tracer.uninstall()
        assert importer.work is work and module.work is work
    finally:
        del sys.modules["repro._fake_a"], sys.modules["hpbench._fake_b"]


def test_chrome_trace_events_and_span_cap():
    tracer = Tracer(clock=FakeClock(1.0, 1.5, 2.0, 2.25), max_spans=1)
    tracer.enter("a.first", "a")
    tracer.exit()
    tracer.enter("a.second", "a")
    tracer.exit()
    doc = tracer.chrome_trace({"workload": "w"})
    (event,) = doc["traceEvents"]
    assert event["ph"] == "X" and event["cat"] == "a"
    assert event["name"] == "first"
    assert event["ts"] == 0 and event["dur"] == 500000
    assert doc["otherData"] == {"workload": "w", "stored_spans": 1,
                                "dropped_spans": 1}
    # Accounting still covers the span beyond the cap.
    assert tracer.calls == {"a.first": 1, "a.second": 1}
