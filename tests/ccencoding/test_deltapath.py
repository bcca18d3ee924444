"""DeltaPath codec: virtual dispatch edges and the wide value space."""


from repro.ccencoding.deltapath import DeltaPathScheme
from repro.ccencoding.instrumentation import InstrumentationPlan
from repro.ccencoding.targeting import Strategy
from repro.program.callgraph import CallGraph


def virtual_call_graph():
    """A dispatch site with three possible receivers, as DeltaPath models
    virtual calls: one labelled edge per (site, resolved callee)."""
    graph = CallGraph()
    for receiver in ("ImplA", "ImplB", "ImplC"):
        graph.add_call_site("main", receiver, "vcall")
        graph.add_call_site(receiver, "malloc")
    return graph


def test_virtual_dispatch_contexts_distinguished():
    graph = virtual_call_graph()
    plan = InstrumentationPlan.build(graph, ["malloc"], Strategy.FCS)
    codec = DeltaPathScheme().build(plan)
    ids = {codec.encode_path(ctx)
           for ctx in graph.enumerate_contexts("malloc")}
    assert len(ids) == 3
    assert sorted(ids) == [0, 1, 2]


def test_decode_resolves_receiver():
    graph = virtual_call_graph()
    plan = InstrumentationPlan.build(graph, ["malloc"], Strategy.TCS)
    codec = DeltaPathScheme().build(plan)
    for context in graph.enumerate_contexts("malloc"):
        decoded = codec.decode("malloc", codec.encode_path(context))
        assert decoded == context
        assert decoded[0].callee in ("ImplA", "ImplB", "ImplC")


def test_wide_value_space():
    """DeltaPath's raison d'être: context counts beyond 64 bits."""
    graph = CallGraph()
    previous = "main"
    # 80 consecutive diamonds: 2**80 contexts — overflows 64 bits.
    for level in range(80):
        left, right, join = f"l{level}", f"r{level}", f"j{level}"
        graph.add_call_site(previous, left)
        graph.add_call_site(previous, right)
        graph.add_call_site(left, join)
        graph.add_call_site(right, join)
        previous = join
    graph.add_call_site(previous, "malloc")
    plan = InstrumentationPlan.build(graph, ["malloc"], Strategy.FCS)
    codec = DeltaPathScheme().build(plan)
    assert codec.num_contexts["malloc"] == 2 ** 80
    # Take one deep context and round-trip it through the wide space.
    path = []
    node = "main"
    while node != "malloc":
        site = graph.out_sites(node)[0]
        path.append(site)
        node = site.callee
    ccid = codec.encode_path(path)
    assert codec.decode("malloc", ccid) == tuple(path)


def test_value_bits():
    assert DeltaPathScheme().build(
        InstrumentationPlan.build(virtual_call_graph(), ["malloc"],
                                  Strategy.FCS)).value_bits == 128
